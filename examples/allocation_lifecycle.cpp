// The full allocation lifecycle of the paper's Fig 1 model, end to end:
//
//   (1) request pilot blocks from the system batch scheduler (Cobalt-like
//       queue waits + boot times), using the §7 spectrum allocator so
//       workers trickle in early;
//   (2) feed a dynamic stream of MPI job definitions to the Coasters/JETS
//       service while blocks are still arriving;
//   (3) enforce the blocks' walltimes — pilots are killed at expiry, JETS
//       disregards them, and whatever was running there is retried.
//
// Build & run:  ./build/examples/allocation_lifecycle
#include <cstdio>

#include "apps/synthetic.hh"
#include "os/machine.hh"
#include "pmi/hydra.hh"
#include "swift/coasters.hh"

using namespace jets;

int main() {
  sim::Engine engine;
  os::Machine machine(engine, os::Machine::eureka(96));
  os::AppRegistry apps;
  apps.install(pmi::kProxyBinary, pmi::Mpiexec::proxy_program(apps));
  machine.shared_fs().put(pmi::kProxyBinary, 2'000'000);
  apps::install_synthetic_apps(apps);
  machine.shared_fs().put("mpi_sleep", 25'000'000);

  // (1) The system batch scheduler: queue wait grows with request size.
  os::BatchScheduler::Policy policy;
  policy.boot_time = sim::seconds(90);
  policy.base_queue_wait = sim::seconds(30);
  policy.wait_per_node = sim::seconds(2);
  os::BatchScheduler cobalt(machine, policy, sim::Rng(7));

  swift::CoasterService::Config cfg;
  cfg.worker.stage_files = {pmi::kProxyBinary, "mpi_sleep"};
  cfg.service.retry.max_attempts = 5;
  swift::CoasterService coasters(machine, apps, cfg);
  coasters.start_with_blocks(cobalt, /*target_nodes=*/64,
                             /*walltime=*/sim::seconds(1200),
                             /*spectrum=*/true);

  // (2) A dynamic stream: 120 MPI jobs submitted one per second from t=0,
  // long before the first block boots. JETS queues them and drains the
  // backlog as capacity arrives.
  for (int i = 0; i < 120; ++i) {
    engine.call_at(sim::seconds(i), [&coasters, i] {
      core::JobSpec job;
      job.kind = core::JobKind::kMpi;
      job.nprocs = (i % 3 + 1) * 4;  // 4/8/12-proc jobs
      job.argv = {"mpi_sleep", "15"};
      coasters.service().submit(job);
    });
  }

  // (3) Walltime: retire ALL pilots at t=1200 s regardless of progress.
  // Service counters live in its metrics registry, by dotted name.
  const auto count = [&](const char* name) {
    return static_cast<std::size_t>(
        coasters.service().metrics().counter_value(name));
  };
  engine.call_at(sim::seconds(600), [&] {
    std::printf("t=600s: %zu workers connected, %zu jobs done, %zu queued\n",
                coasters.service().connected_workers(),
                count("jets.service.jobs.completed"),
                coasters.service().pending_jobs());
  });

  bool finished = false;
  engine.spawn("main", [](swift::CoasterService& c, bool& fin) -> sim::Task<void> {
    co_await c.service().wait_all();
    fin = true;
  }(coasters, finished));
  engine.run_until(sim::seconds(3600));

  std::printf("\nfinal: %zu/%d jobs completed (%zu failed) in %.0f s\n",
              count("jets.service.jobs.completed"), 120,
              count("jets.service.jobs.failed"),
              sim::to_seconds(engine.now()));
  std::printf("workers provisioned through the spectrum allocator: %zu\n",
              coasters.worker_count());
  return finished ? 0 : 1;
}
