// The three workloads, each a seeded, scaled version of one of the paper's
// headline experiments, run through the public API:
//
//   seq_dispatch  Fig 6: sequential launches through core::StandaloneJets
//   mpi_gang      Fig 9: 4/8/64-rank MPI gangs through core::StandaloneJets
//   swift_rem     Fig 18a: REM workflow through swift::CoasterService and
//                 swift::SwiftEngine
//
// All are closed loop: the whole batch (or workflow) is submitted at once
// and each simulated worker slot takes its next task only when its last one
// finished. The calibration is the figure harnesses' (bench/harness.hh), so
// the simulated schedule is the paper's, scaled.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>

#include "apps/rem.hh"
#include "bench.hh"
#include "core/standalone.hh"
#include "os/machine.hh"
#include "pmi/hydra.hh"
#include "swift/coasters.hh"
#include "swift/engine.hh"

namespace jets::perfbench {

std::unique_ptr<sim::ScopedObserver> Recorder::attach(Bed& bed) {
  if (trace_) {
    tracer_ = std::make_unique<obs::Tracer>(bed.engine);
    bed.machine.set_tracer(tracer_.get());
  }
  if (!count_spawns_) return nullptr;
  return std::make_unique<sim::ScopedObserver>(bed.engine, spawns_);
}

void Recorder::mark_end(Bed& bed) {
  at_end_ = read(bed);
  if (tracer_) {
    spans_ = tracer_->size();
    phases_.absorb(*tracer_);
  }
}

Counts Recorder::read(Bed& bed) {
  Counts c;
  c.events = bed.engine.events_executed();
  c.cancelled = bed.engine.cancelled_events();
  const auto& arena = bed.machine.network().arena();
  c.messages = arena.flushes() + arena.coalesced();
  c.coalesced = arena.coalesced();
  c.rpc_calls = registry_.counter("jets.rpc.calls").value;
  c.rpc_notifies = registry_.counter("jets.rpc.notifies").value;
  c.rpc_decode_errors = registry_.counter("jets.rpc.decode_errors").value;
  c.slab_high_water = bed.engine.slab_high_water();
  c.arena_high_water = arena.high_water();
  c.spawns = spawns_;
  return c;
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Workload sizes and calibration -------------------------------------------

constexpr std::size_t kSeqNodes = 1024;      // full Surveyor rack
constexpr int kSeqWorkersPerNode = 4;        // one pilot per core
constexpr std::size_t kSeqTasksPerSlot = 20;
constexpr std::size_t kMpiNodes = 512;
constexpr std::size_t kMpiJobsPerWidth = 128;  // of each of 4, 8, 64 ranks
constexpr std::size_t kRemNodes = 1024;
constexpr int kRemReplicas = 2048;
constexpr int kRemExchanges = 16;

// --- Seeded inputs -------------------------------------------------------------
//
// Drawn from std::mt19937_64's raw output (fully specified by the standard),
// so the same seed gives the same inputs on any toolchain. Each seed changes
// which tasks sleep and for how long, or the gang order and durations, but
// never the amount of work, so host time stays comparable across seeds.

template <typename T>
void shuffle(std::vector<T>& v, std::mt19937_64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng() % i]);
  }
}

std::string fixed(double v, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

/// ~3/4 noop and exactly 1/4 `sleep 0.05..1.00`, one task list for every
/// slot of the rack times kSeqTasksPerSlot.
std::vector<core::JobSpec> seq_inputs(std::uint64_t seed) {
  const std::size_t n = kSeqNodes * kSeqWorkersPerNode * kSeqTasksPerSlot;
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> sleeps(n, 0);
  std::fill(sleeps.begin(), sleeps.begin() + static_cast<std::ptrdiff_t>(n / 4), 1);
  shuffle(sleeps, rng);
  std::vector<core::JobSpec> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (sleeps[i] != 0) {
      jobs[i].argv = {"sleep", fixed(0.05 + static_cast<double>(rng() % 96) * 0.01, 2)};
    } else {
      jobs[i].argv = {"noop"};
    }
  }
  return jobs;
}

/// kMpiJobsPerWidth gangs of each of 4, 8 and 64 ranks in seeded order,
/// each `mpi_sleep 8.0..12.0`.
std::vector<core::JobSpec> mpi_inputs(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int> widths;
  for (int w : {4, 8, 64}) widths.insert(widths.end(), kMpiJobsPerWidth, w);
  shuffle(widths, rng);
  std::vector<core::JobSpec> jobs(widths.size());
  for (std::size_t i = 0; i < widths.size(); ++i) {
    jobs[i].kind = core::JobKind::kMpi;
    jobs[i].nprocs = widths[i];
    jobs[i].argv = {"mpi_sleep", fixed(8.0 + static_cast<double>(rng() % 41) * 0.1, 1)};
  }
  return jobs;
}

apps::RemWorkflowConfig rem_inputs(std::uint64_t seed) {
  apps::RemWorkflowConfig rem;
  rem.replicas = kRemReplicas;
  rem.exchanges = kRemExchanges;
  rem.mpi = false;
  rem.seed = seed;
  return rem;
}

// --- Digests -------------------------------------------------------------------

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void mix(const std::string& s) {
    for (unsigned char c : s) mix(static_cast<std::uint64_t>(c));
    mix(0xffu);
  }
};

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t input_digest(const std::vector<core::JobSpec>& jobs) {
  Fnv f;
  for (const auto& j : jobs) f.mix(core::to_line(j));
  return f.h;
}

/// The same fold as tests/scale_test.cc: one FNV-1a step per record digest.
std::uint64_t records_digest(const std::vector<core::JobRecord>& records) {
  Fnv f;
  for (const auto& rec : records) f.mix(core::record_digest(rec));
  return f.h;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Everything one repetition reports, filled by the workload runners.
struct Rep {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::uint64_t input_digest = 0;
  std::uint64_t digest = 0;
  sim::Duration makespan = 0;
  double setup_s = 0;
  double wall_s = 0;
  double build_s = 0;
  std::uint64_t retries = 0;
  std::vector<std::vector<std::string>> argvs;  // for the rpc probe
};

/// The repetition's JSON record: its outcome, host times and, from the
/// recorder, the timed window's work counts.
std::string record_json(const RunOptions& options, const Rep& rep,
                        const Recorder& recorder) {
  const Counts& a = recorder.at_submit();
  const Counts& b = recorder.at_end();
  JsonObject o;
  o.put("workload", options.workload);
  o.put("seed", options.seed);
  o.put("traced", static_cast<std::uint64_t>(options.traced));
  o.put("submitted", static_cast<std::uint64_t>(rep.submitted));
  o.put("completed", static_cast<std::uint64_t>(rep.completed));
  o.put("input_digest", hex(rep.input_digest));
  o.put("digest", hex(rep.digest));
  o.put("makespan_ns", static_cast<std::uint64_t>(rep.makespan));
  o.put("setup_s", rep.setup_s);
  o.put("wall_s", rep.wall_s);
  o.put("peak_rss_mb", peak_rss_mb());
  o.put("build_s", rep.build_s);
  o.put("events", b.events - a.events);
  o.put("cancelled", b.cancelled - a.cancelled);
  o.put("messages", b.messages - a.messages);
  o.put("coalesced", b.coalesced - a.coalesced);
  o.put("slab_high_water", b.slab_high_water);
  o.put("arena_high_water", b.arena_high_water);
  o.put("rpc_calls", b.rpc_calls - a.rpc_calls);
  o.put("rpc_notifies", b.rpc_notifies - a.rpc_notifies);
  o.put("rpc_decode_errors", b.rpc_decode_errors);  // whole run
  o.put("retries", rep.retries);
  if (options.traced) {
    o.put("spawns", b.spawns.total() - a.spawns.total());
    o.put("execs", recorder.window_spawns("reaper"));
    o.put("mpiexecs", recorder.window_spawns("mpiexec"));
    o.put("proxy_conns", recorder.window_spawns("mpiexec-conn"));
    o.put("acceptors", recorder.window_spawns("mpi-acceptor"));
    // Whole run: pilots connect, and the workflow registers its
    // statements, during set-up.
    o.put("statements", b.spawns.count("swift-stmt"));
    o.put("worker_conns", b.spawns.count("jets-worker-conn"));
    o.put("spans", recorder.spans());
    for (const auto& row : recorder.phases().rows()) {
      o.put("phase." + row.phase + ".count", row.count);
      o.put("phase." + row.phase + ".mean_sim_ms", row.mean_ns() / 1e6);
    }
  }
  if (options.probes) o.put_raw("probes", run_probes(rep.argvs));
  return o.str();
}

/// seq_dispatch and mpi_gang: a batch through core::StandaloneJets.
std::string run_standalone(const RunOptions& options, std::size_t nodes,
                           int workers_per_node,
                           std::vector<core::JobSpec> jobs,
                           std::vector<std::string> stage_files) {
  Rep rep;
  rep.submitted = jobs.size();
  rep.input_digest = input_digest(jobs);
  if (options.probes) {
    for (const auto& j : jobs) rep.argvs.push_back(j.argv);
  }
  Recorder recorder(options.traced, options.traced);
  const BatchRun run = run_standalone_batch(recorder, nodes, workers_per_node,
                                            std::move(jobs),
                                            std::move(stage_files));
  rep.setup_s = run.setup_s;
  rep.wall_s = run.wall_s;
  rep.retries = run.retries;
  rep.completed = run.report.completed;
  rep.digest = records_digest(run.report.records);
  rep.makespan = run.report.batch_finished - run.report.batch_started;
  return record_json(options, rep, recorder);
}

/// swift_rem: the REM dataflow through Swift and Coasters. As for the
/// stand-alone batches, set-up ends when the work is submitted: it covers
/// the machine, the Coasters service, every pilot registering, and the
/// workflow build. The timed window is the engine run that executes it.
std::string run_swift_rem(const RunOptions& options) {
  const apps::RemWorkflowConfig rem = rem_inputs(options.seed);
  Rep rep;
  rep.submitted = static_cast<std::size_t>(apps::rem_segment_count(rem));
  Recorder recorder(options.traced, options.traced);

  const Clock::time_point t0 = Clock::now();
  Bed bed(os::Machine::eureka(kRemNodes));
  const auto observing = recorder.attach(bed);
  swift::CoasterService::Config cfg;
  cfg.worker.task_overhead = bench::kX86WorkerOverhead;
  cfg.worker.stage_files = {pmi::kProxyBinary};
  cfg.workers_per_node = 1;
  cfg.service.mpi_job_overhead = sim::milliseconds(2);
  cfg.service.proxy_setup_cost = sim::milliseconds(1);
  cfg.service.metrics = &recorder.registry();
  swift::CoasterService coasters(bed.machine, bed.apps, cfg);
  coasters.start_on(bed.nodes(kRemNodes));
  swift::SwiftEngine swift_engine(bed.machine, coasters);

  Clock::time_point t_build;
  Clock::time_point t_submit;
  sim::Time sim0 = 0;
  auto workflow = [&]() -> sim::Task<void> {
    // Same poll as core::StandaloneJets::wait_workers.
    while (coasters.service().connected_workers() < kRemNodes) {
      co_await sim::delay(sim::milliseconds(100));
    }
    t_build = Clock::now();
    apps::build_rem_workflow(swift_engine, rem);
    recorder.mark_submit(bed);
    t_submit = Clock::now();
    sim0 = bed.engine.now();
    co_await swift_engine.run_to_completion();
  };
  bed.engine.spawn("perfbench-batch", workflow());
  bed.engine.run();
  const Clock::time_point t_end = Clock::now();
  recorder.mark_end(bed);

  rep.setup_s = seconds_between(t0, t_submit);
  rep.build_s = seconds_between(t_build, t_submit);
  rep.wall_s = seconds_between(t_submit, t_end);
  rep.retries = coasters.service().retries_scheduled();
  const auto& records = swift_engine.job_records();
  const bool all_settled = swift_engine.failed() == 0 &&
                           swift_engine.completed() == swift_engine.registered();
  if (all_settled) {
    rep.completed = static_cast<std::size_t>(std::count_if(
        records.begin(), records.end(), [](const core::JobRecord& r) {
          return r.status == core::JobStatus::kDone;
        }));
  }
  // The generated segment specs, sorted so the digest does not depend on
  // completion order.
  std::vector<std::string> specs;
  for (const auto& r : records) specs.push_back(core::to_line(r.spec));
  std::sort(specs.begin(), specs.end());
  Fnv inputs;
  for (const auto& line : specs) inputs.mix(line);
  rep.input_digest = inputs.h;
  rep.digest = records_digest(records);
  rep.makespan = bed.engine.now() - sim0;
  if (options.probes) {
    for (const auto& r : records) rep.argvs.push_back(r.spec.argv);
  }
  return record_json(options, rep, recorder);
}

}  // namespace

BatchRun run_standalone_batch(Recorder& recorder, std::size_t nodes,
                              int workers_per_node,
                              std::vector<core::JobSpec> jobs,
                              std::vector<std::string> stage_files) {
  const Clock::time_point t0 = Clock::now();
  Bed bed(os::Machine::surveyor(nodes));
  const auto observing = recorder.attach(bed);
  auto o = bench::surveyor_options(workers_per_node);
  o.worker.stage_files = std::move(stage_files);
  o.service.metrics = &recorder.registry();
  core::StandaloneJets jets(bed.machine, bed.apps, o);
  jets.start(bed.nodes(nodes));

  BatchRun run;
  Clock::time_point t_submit;
  auto batch = [&]() -> sim::Task<void> {
    co_await jets.wait_workers();
    recorder.mark_submit(bed);
    t_submit = Clock::now();
    run.report = co_await jets.run_batch(std::move(jobs));
  };
  bed.engine.spawn("perfbench-batch", batch());
  bed.engine.run();
  const Clock::time_point t_end = Clock::now();
  recorder.mark_end(bed);

  run.setup_s = seconds_between(t0, t_submit);
  run.wall_s = seconds_between(t_submit, t_end);
  run.retries = jets.service().retries_scheduled();
  return run;
}

std::string run_workload(const RunOptions& options) {
  if (options.workload == "seq_dispatch") {
    return run_standalone(options, kSeqNodes, kSeqWorkersPerNode,
                          seq_inputs(options.seed),
                          {pmi::kProxyBinary, "noop", "sleep"});
  }
  if (options.workload == "mpi_gang") {
    return run_standalone(options, kMpiNodes, 1, mpi_inputs(options.seed),
                          {pmi::kProxyBinary, "mpi_sleep"});
  }
  if (options.workload == "swift_rem") return run_swift_rem(options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace jets::perfbench
