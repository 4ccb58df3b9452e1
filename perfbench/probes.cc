// Per-layer probes: each calls one layer's public functions in isolation on
// a private simulation and times it on the host. Every probe reports its
// raw host time, its unit count, and the lower-layer work it did (engine
// events, socket messages, rpc frames, execs), so run.py can turn the raw
// times into per-unit self costs and estimate each layer's share of a
// workload's wall time.
#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "bench.hh"
#include "core/standalone.hh"
#include "net/fabric.hh"
#include "net/rpc.hh"
#include "net/socket.hh"
#include "os/machine.hh"
#include "pmi/hydra.hh"

namespace jets::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// One probe run: host time plus the work it did.
struct Sample {
  std::uint64_t ns = 0;
  std::uint64_t units = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t frames = 0;
  std::uint64_t execs = 0;
  std::uint64_t conns = 0;

  std::string json() const {
    JsonObject o;
    o.put("ns", ns);
    o.put("units", units);
    o.put("events", events);
    o.put("messages", messages);
    o.put("frames", frames);
    o.put("execs", execs);
    o.put("conns", conns);
    return o.str();
  }
};

/// Runs `probe` `reps` times and keeps the run with the median host time
/// (the work counts are deterministic; only the time varies).
template <typename F>
Sample median_of(int reps, F&& probe) {
  std::vector<Sample> runs;
  for (int i = 0; i < reps; ++i) runs.push_back(probe());
  std::sort(runs.begin(), runs.end(),
            [](const Sample& a, const Sample& b) { return a.ns < b.ns; });
  return runs[runs.size() / 2];
}

std::uint64_t arena_messages(const net::Network& net) {
  return net.arena().flushes() + net.arena().coalesced();
}

/// sim: call_in plus run of plain callbacks on a private Engine, in
/// batches of 1,000 pending events (the workloads' typical heap depth).
Sample probe_sim() {
  constexpr int kBatches = 200;
  constexpr int kBatch = 1000;
  sim::Engine e;
  std::uint64_t fired = 0;
  const auto t0 = Clock::now();
  for (int b = 0; b < kBatches; ++b) {
    for (int i = 0; i < kBatch; ++i) {
      e.call_in(sim::microseconds(i % 97), [&fired] { ++fired; });
    }
    e.run();
  }
  Sample s;
  s.ns = ns_since(t0);
  s.units = fired;
  s.events = e.events_executed();
  return s;
}

/// net: ping-pong over Network::connect and the Socket API.
Sample probe_net() {
  constexpr int kRounds = 4000;
  sim::Engine e;
  net::Network net(e, std::make_shared<net::EthernetFabric>());
  auto listener = net.listen({1, 9});
  e.spawn("probe-server", [](net::Listener& l) -> sim::Task<void> {
    auto s = co_await l.accept();
    for (int i = 0; i < kRounds; ++i) {
      if (!co_await s->recv()) co_return;
      s->send(net::Message("pong"));
    }
  }(*listener));
  e.spawn("probe-client", [](net::Network& n) -> sim::Task<void> {
    auto s = co_await n.connect(0, {1, 9});
    for (int i = 0; i < kRounds; ++i) {
      s->send(net::Message("ping"));
      (void)co_await s->recv();
    }
  }(net));
  const auto t0 = Clock::now();
  e.run();
  Sample s;
  s.ns = ns_since(t0);
  s.units = kRounds;
  s.events = e.events_executed();
  s.messages = arena_messages(net);
  return s;
}

/// rpc: encode, wire_size and decode of TaskRun and TaskDone frames built
/// from the workload's own command lines.
Sample probe_rpc(const std::vector<std::vector<std::string>>& argvs) {
  namespace rpc = net::rpc;
  constexpr std::size_t kMaxFrames = 40'000;
  const std::size_t n = std::min(argvs.size(), kMaxFrames / 2);
  std::vector<rpc::TaskRun> runs;
  std::vector<rpc::TaskDone> dones;
  for (std::size_t i = 0; i < n; ++i) {
    runs.emplace_back("t" + std::to_string(i), argvs[i]);
    dones.emplace_back("t" + std::to_string(i), 0, rpc::TaskDone::Reason::kApp);
  }
  std::uint64_t bytes = 0;
  std::uint64_t decoded = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const net::Message run = runs[i].encode();
    bytes += run.wire_size();
    if (auto back = rpc::TaskRun::decode(run)) decoded += !back.value().argv.empty();
    const net::Message done = dones[i].encode();
    bytes += done.wire_size();
    if (auto back = rpc::TaskDone::decode(done)) decoded += !back.value().task_id.empty();
  }
  Sample s;
  s.ns = ns_since(t0);
  // Every frame must decode; if one did not, `units` is 0 and run.py
  // reports the probe as failed.
  s.units = bytes > 0 && decoded == 2 * n ? 2 * n : 0;
  s.frames = 2 * n;
  return s;
}

/// os: Machine::exec plus wait of a staged noop on one idle node.
Sample probe_os() {
  constexpr int kExecs = 2000;
  sim::Engine e;
  os::Machine m(e, os::Machine::surveyor(1));
  m.node(0).local_fs().put("noop", 16'384);
  SpawnCounter spawns;
  sim::ScopedObserver observe(e, spawns);
  e.spawn("probe-forker", [](os::Machine& m) -> sim::Task<void> {
    for (int i = 0; i < kExecs; ++i) {
      os::ExecOptions opts;
      opts.binary = "noop";
      auto pid = m.exec(0, "noop", []() -> sim::Task<void> { co_return; }(),
                        std::move(opts));
      co_await m.wait(pid);
    }
  }(m));
  const auto t0 = Clock::now();
  e.run();
  Sample s;
  s.ns = ns_since(t0);
  s.units = spawns.count("reaper");
  s.events = e.events_executed();
  s.messages = arena_messages(m.network());
  s.execs = spawns.count("reaper");
  return s;
}

/// A small stand-alone JETS batch; times it from submit until the engine
/// drains.
Sample run_small_batch(std::size_t nodes, int workers_per_node,
                       std::vector<core::JobSpec> jobs,
                       std::vector<std::string> stage_files) {
  const std::size_t submitted = jobs.size();
  Recorder recorder(/*count_spawns=*/true, /*trace=*/false);
  const BatchRun run = run_standalone_batch(recorder, nodes, workers_per_node,
                                            std::move(jobs),
                                            std::move(stage_files));
  const Counts& a = recorder.at_submit();
  const Counts& b = recorder.at_end();
  Sample s;
  s.ns = static_cast<std::uint64_t>(run.wall_s * 1e9);
  s.units = run.report.completed == submitted ? submitted : 0;
  s.events = b.events - a.events;
  s.messages = b.messages - a.messages;
  s.frames = 2 * (b.rpc_calls - a.rpc_calls) + (b.rpc_notifies - a.rpc_notifies);
  s.execs = recorder.window_spawns("reaper");
  s.conns = recorder.window_spawns("mpiexec-conn");
  return s;
}

/// core: 256 noop tasks through stand-alone JETS on one node.
Sample probe_core() {
  std::vector<core::JobSpec> jobs(256);
  for (auto& j : jobs) j.argv = {"noop"};
  return run_small_batch(1, 4, std::move(jobs), {pmi::kProxyBinary, "noop"});
}

/// pmi: one 64-rank mpi_sleep job on an idle 64-node allocation.
Sample probe_pmi() {
  core::JobSpec job;
  job.kind = core::JobKind::kMpi;
  job.nprocs = 64;
  job.argv = {"mpi_sleep", "1"};
  return run_small_batch(64, 1, {job}, {pmi::kProxyBinary, "mpi_sleep"});
}

}  // namespace

std::string run_probes(const std::vector<std::vector<std::string>>& argvs) {
  JsonObject o;
  o.put_raw("sim", median_of(7, probe_sim).json());
  o.put_raw("net", median_of(7, probe_net).json());
  o.put_raw("rpc", median_of(7, [&] { return probe_rpc(argvs); }).json());
  o.put_raw("os", median_of(7, probe_os).json());
  o.put_raw("core", median_of(7, probe_core).json());
  o.put_raw("pmi", median_of(7, probe_pmi).json());
  return o.str();
}

}  // namespace jets::perfbench
