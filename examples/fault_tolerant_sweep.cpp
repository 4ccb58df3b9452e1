// Parameter sweep surviving worker faults — the "faulty setting" of §6.1.5
// as a user would actually hit it: a sweep of MPI jobs over a parameter
// grid on the BG/P, with infrastructure misbehaving underneath. The chaos
// plan mixes fault classes: pilots die outright (hardware faults,
// allocation borders), one pilot wedges with its socket open, a node's
// network stalls, and a node silently runs slow. JETS disregards broken
// workers — via EOF for kills, via the heartbeat/liveness deadline for the
// hang and the stall — retries their jobs on survivors, and the sweep
// completes with an accounting of retries.
//
// Build & run:  ./build/examples/fault_tolerant_sweep
#include <cstdio>
#include <memory>
#include <string>

#include "apps/synthetic.hh"
#include "core/chaos.hh"
#include "core/standalone.hh"
#include "os/machine.hh"
#include "pmi/hydra.hh"

using namespace jets;

int main() {
  constexpr std::size_t kNodes = 32;
  sim::Engine engine;
  os::Machine machine(engine, os::Machine::surveyor(kNodes));
  os::AppRegistry apps;
  apps.install(pmi::kProxyBinary, pmi::Mpiexec::proxy_program(apps));
  machine.shared_fs().put(pmi::kProxyBinary, 2'000'000);
  apps::install_synthetic_apps(apps);
  machine.shared_fs().put("mpi_sleep", 25'000'000);

  core::StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(450);
  options.worker.stage_files = {pmi::kProxyBinary, "mpi_sleep"};
  options.service.retry.max_attempts = 5;  // faults cost retries, not results
  // Liveness: workers ping every 2 s while busy; 8 s of silence from a
  // busy worker and the service disregards it and retries its job.
  options.worker.heartbeat_interval = sim::seconds(2);
  options.service.worker_liveness_timeout = sim::seconds(8);
  auto registry = std::make_shared<core::WorkerHangRegistry>();
  options.worker.hang_registry = registry;
  core::StandaloneJets jets(machine, apps, options);
  std::vector<os::NodeId> allocation;
  for (std::size_t i = 0; i < kNodes; ++i) {
    allocation.push_back(static_cast<os::NodeId>(i));
  }
  jets.start(allocation);

  // The sweep: 2-D grid over (size, duration) -> 48 MPI jobs.
  std::vector<core::JobSpec> sweep;
  for (int nprocs : {2, 4, 8}) {
    for (int dur = 1; dur <= 16; ++dur) {
      core::JobSpec s;
      s.kind = core::JobKind::kMpi;
      s.nprocs = nprocs;
      s.argv = {"mpi_sleep", std::to_string(dur)};
      sweep.push_back(std::move(s));
    }
  }

  // The chaos plan: six random pilot kills 15 s apart, plus one permanent
  // hang, one 20 s network stall, and one 4x slow node.
  core::ChaosEngine chaos(machine, sim::Rng(5));
  chaos.set_pilots(jets.worker_pids());
  chaos.set_hang_registry(registry);
  chaos.add_periodic(core::FaultKind::kKillPilot, sim::seconds(15),
                     sim::seconds(15), 6);
  chaos.add({.at = sim::seconds(20), .kind = core::FaultKind::kHangWorker});
  chaos.add({.at = sim::seconds(35),
             .kind = core::FaultKind::kSocketStall,
             .duration = sim::seconds(20)});
  chaos.add({.at = sim::seconds(10),
             .kind = core::FaultKind::kSlowNode,
             .exec_scale = 4.0,
             .compute_scale = 4.0});

  core::BatchReport report;
  engine.spawn("main", [](core::StandaloneJets& jets, core::ChaosEngine& chaos,
                          std::vector<core::JobSpec> sweep,
                          core::BatchReport& out) -> sim::Task<void> {
    co_await jets.wait_workers();
    chaos.start();
    out = co_await jets.run_batch(std::move(sweep));
  }(jets, chaos, std::move(sweep), report));
  engine.run();

  int retried = 0, total_attempts = 0;
  for (const auto& rec : report.records) {
    total_attempts += rec.attempts;
    if (rec.attempts > 1) ++retried;
  }
  const auto& c = chaos.counters();
  // Service counters live in its metrics registry, by dotted name.
  const auto count = [&](const std::string& name) {
    return static_cast<std::size_t>(
        jets.service().metrics().counter_value(name));
  };
  std::printf("sweep: %zu jobs, %zu completed, %zu failed\n",
              report.records.size(), report.completed, report.failed);
  std::printf(
      "faults injected: %zu pilots killed, %zu hung, %zu nodes stalled, "
      "%zu degraded\n",
      c.pilots_killed, c.workers_hung, c.nodes_stalled, c.nodes_degraded);
  std::printf("service response: %zu workers evicted, %zu re-enlisted "
              "(%zu heartbeats)\n",
              count("jets.service.workers.evicted"),
              count("jets.service.workers.reenlisted"),
              count("jets.service.workers.heartbeats"));
  std::printf("jobs retried after faults: %d (total attempts %d, "
              "%zu delayed requeues)\n",
              retried, total_attempts, jets.service().retries_scheduled());
  std::printf("failure taxonomy:");
  for (std::size_t i = 1; i < core::kFailureReasonCount; ++i) {
    const auto reason = static_cast<core::FailureReason>(i);
    const auto n = count(std::string("jets.service.failures.") +
                         core::to_string(reason));
    if (n > 0) {
      std::printf(" %s=%zu", core::to_string(reason), n);
    }
  }
  std::printf("\n");
  std::printf("makespan %.0f s on a degraded allocation (%zu slots, "
              "%zu killed/hung)\n",
              report.makespan_seconds(), report.total_slots,
              c.pilots_killed + c.workers_hung);
  return report.failed == 0 ? 0 : 1;
}
