// Fig 10 — task management in a faulty setting (§6.1.5), extended into a
// fault-spectrum bench.
//
// The paper's protocol: 32 Surveyor workers run a continuous stream of
// short sequential tasks while one randomly selected pilot is terminated
// every 10 s; the figure plots "nodes available" and "running jobs" over
// time, with running jobs hugging the shrinking node count until the
// allocation is gone at ~320 s.
//
// This harness runs the same workload under four fault classes from the
// chaos engine (core/chaos.hh), one scenario per series:
//
//   kill   — the paper's original fault: pilot SIGKILL, service sees EOF.
//   hang   — pilots freeze with their sockets open; only the heartbeat /
//            liveness machinery can detect them, so "nodes available" here
//            counts *usable* workers (connected minus hung-but-undetected).
//            Hangs are permanent: the pool shrinks like the kill series,
//            but each drop lags the fault by the liveness deadline.
//   stall  — 30 s network stalls on random nodes: the service evicts the
//            silent worker (liveness), retries its job elsewhere, and
//            re-enlists the worker when its traffic drains — the pool dips
//            and recovers instead of shrinking.
//   launch — MPI gangs under permanent hangs with the launch-phase deadline
//            (Config::mpi_launch_timeout) armed: a pilot frozen before its
//            proxy dials back fails the gang fast with kLaunchTimeout (an
//            infra-class failure that, with retry.infra_exempt, does not
//            consume the app attempt budget) instead of wedging mpiexec.
//
// Each scenario's trailer prints the service's per-reason failure counters
// (FailureReason taxonomy) and the retry engine's delayed-requeue count.
//
// All scenarios drive faults and placement from fixed seeds; two runs of
// this binary produce byte-identical output.
// The service-crash-and-recover fault class runs in bench/scn_recover.
#include <cstdio>
#include <memory>
#include <string>

#include "core/chaos.hh"
#include "harness.hh"

using namespace jets;

namespace {

struct Scenario {
  const char* label;
  core::FaultKind kind;
  sim::Duration fault_duration;  // stall window; 0 = permanent fault
  bool heartbeats;               // enable worker pings + liveness eviction
  bool mpi = false;              // 2-proc MPI gangs instead of seq tasks
};

void run_scenario(const Scenario& sc) {
  constexpr std::size_t kNodes = 32;
  bench::Bed bed(os::Machine::surveyor(kNodes));
  auto options = bench::surveyor_options(/*workers_per_node=*/1);
  options.worker.stage_files = {pmi::kProxyBinary, "sleep", "mpi_sleep"};
  options.service.retry.max_attempts = 100;  // keep retrying onto survivors
  auto registry = std::make_shared<core::WorkerHangRegistry>();
  options.worker.hang_registry = registry;
  if (sc.heartbeats) {
    options.worker.heartbeat_interval = sim::seconds(2);
    options.service.worker_liveness_timeout = sim::seconds(5);
  }
  if (sc.mpi) {
    // The launch series: gangs must finish wiring within 3 s, and launch
    // timeouts are charged to the infra budget, not the app budget.
    options.service.mpi_launch_timeout = sim::seconds(3);
    options.service.retry.infra_exempt = true;
  }
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(bed.nodes(kNodes));

  // More work than the allocation can finish: the run ends when the last
  // worker dies (kill/hang) or the 400 s observation window closes.
  std::vector<core::JobSpec> jobs(
      sc.mpi ? 5'000 : 20'000,
      sc.mpi ? bench::mpi_job(2, {"mpi_sleep", "1"})
             : bench::seq_job({"sleep", "1"}));

  core::ChaosEngine chaos(bed.machine, sim::Rng(2011).fork(sc.label));
  chaos.set_pilots(jets.worker_pids());
  chaos.set_hang_registry(registry);
  chaos.add_periodic(sc.kind, sim::seconds(10), sim::seconds(10), kNodes,
                     sc.fault_duration);

  bed.engine.spawn("driver", [](core::StandaloneJets& jets,
                                std::vector<core::JobSpec> jobs,
                                core::ChaosEngine& chaos) -> sim::Task<void> {
    co_await jets.wait_workers();
    jets.service().submit_batch(jobs);
    chaos.start();
  }(jets, std::move(jobs), chaos));

  // Sample both series once per second.
  sim::TimeSeries nodes_available;
  sim::TimeSeries running_jobs;
  for (int t = 1; t <= 400; ++t) {
    bed.engine.run_until(sim::seconds(t));
    nodes_available.add(bed.engine.now(),
                        static_cast<double>(jets.service().connected_workers()));
    running_jobs.add(bed.engine.now(),
                     static_cast<double>(jets.service().running_jobs()));
    if (t > 20 && jets.service().connected_workers() == 0) break;
  }

  std::printf("# scenario: %s\n", sc.label);
  std::printf("%-8s %-16s %s\n", "time_s", "nodes_available", "running_jobs");
  const auto& na = nodes_available.points();
  const auto& rj = running_jobs.points();
  for (std::size_t i = 0; i < na.size(); ++i) {
    std::printf("%-8.0f %-16.0f %.0f\n", sim::to_seconds(na[i].first),
                na[i].second, rj[i].second);
  }
  const auto& c = chaos.counters();
  const core::Service& svc = jets.service();
  std::printf(
      "# %s: killed=%zu hung=%zu stalled=%zu | evicted=%zu reenlisted=%zu "
      "heartbeats=%zu completed=%zu failed=%zu quarantined=%zu\n",
      sc.label, c.pilots_killed, c.workers_hung, c.nodes_stalled,
      bench::service_counter(svc, "workers.evicted"),
      bench::service_counter(svc, "workers.reenlisted"),
      bench::service_counter(svc, "workers.heartbeats"),
      bench::service_counter(svc, "jobs.completed"),
      bench::service_counter(svc, "jobs.failed"),
      bench::service_counter(svc, "jobs.quarantined"));
  std::printf("# %s failures:", sc.label);
  for (std::size_t i = 1; i < core::kFailureReasonCount; ++i) {
    const auto reason = static_cast<core::FailureReason>(i);
    const std::size_t n = bench::service_counter(
        svc, std::string("failures.") + core::to_string(reason));
    // service-restart and walltime-drain cannot occur here (no restore,
    // no elastic allocator); skipping their zeros keeps the golden trailer.
    if ((reason == core::FailureReason::kServiceRestart ||
         reason == core::FailureReason::kWalltimeDrain) &&
        n == 0) {
      continue;
    }
    std::printf(" %s=%zu", core::to_string(reason), n);
  }
  std::printf(" | retries_scheduled=%zu\n", svc.retries_scheduled());
}

}  // namespace

int main() {
  bench::figure_header(
      "fig10", "running jobs vs available nodes across the fault spectrum",
      "one fault every 10 s on 32 workers; kill and hang series shrink the "
      "pool (hang lagging by the liveness deadline), stall series dips and "
      "recovers via eviction + re-enlistment; launch series runs MPI gangs "
      "with a launch-phase deadline so hung pilots fail fast as "
      "launch-timeout instead of wedging mpiexec");

  run_scenario({"kill", core::FaultKind::kKillPilot, 0, false});
  run_scenario({"hang", core::FaultKind::kHangWorker, 0, true});
  run_scenario({"stall", core::FaultKind::kSocketStall, sim::seconds(30), true});
  run_scenario({"launch", core::FaultKind::kHangWorker, 0, true, /*mpi=*/true});
  return 0;
}
