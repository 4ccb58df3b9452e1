// Ablation — Coasters "multiple-job-size spectrum" allocator (§7).
//
// Provisioning n pilot nodes as one batch request waits long in the system
// queue (queue wait grows with request size); the spectrum allocator
// requests n/2, n/4, ..., 1 concurrently so workers trickle in early. This
// bench measures time-to-first-worker, time-to-half, time-to-all, and the
// makespan of a batch submitted at t=0.
#include <cstdio>

#include "harness.hh"
#include "swift/coasters.hh"

using namespace jets;

namespace {

struct RampResult {
  double first_worker_s = -1;
  double half_workers_s = -1;
  double all_workers_s = -1;
  double batch_done_s = -1;
};

RampResult run(bool spectrum) {
  constexpr std::size_t kTarget = 64;
  bench::Bed bed(os::Machine::eureka(96));
  os::BatchScheduler::Policy policy;
  policy.boot_time = sim::seconds(90);
  policy.base_queue_wait = sim::seconds(30);
  policy.wait_per_node = sim::seconds(4);  // big blocks queue long
  os::BatchScheduler sched(bed.machine, policy, sim::Rng(11));

  swift::CoasterService::Config cfg;
  cfg.worker.task_overhead = bench::kX86WorkerOverhead;
  cfg.worker.stage_files = {pmi::kProxyBinary};
  swift::CoasterService coasters(bed.machine, bed.apps, cfg);
  coasters.start_with_blocks(sched, kTarget, sim::seconds(7200), spectrum);

  // Work waiting from t=0: 4x the target node count of 30 s tasks.
  for (std::size_t i = 0; i < kTarget * 4; ++i) {
    coasters.service().submit(bench::seq_job({"sleep", "30"}));
  }

  RampResult r;
  for (int t = 1; t <= 7200; ++t) {
    bed.engine.run_until(sim::seconds(t));
    const auto connected = coasters.service().connected_workers();
    const double now = sim::to_seconds(bed.engine.now());
    if (r.first_worker_s < 0 && connected >= 1) r.first_worker_s = now;
    if (r.half_workers_s < 0 && connected >= kTarget / 2) r.half_workers_s = now;
    if (r.all_workers_s < 0 && connected >= kTarget) r.all_workers_s = now;
    if (bench::service_counter(coasters.service(), "jobs.completed") >=
        kTarget * 4) {
      r.batch_done_s = now;
      break;
    }
  }
  return r;
}

}  // namespace

int main() {
  bench::figure_header("abl_spectrum",
                       "single-block vs spectrum pilot allocation",
                       "spectrum blocks clear the queue early: faster ramp "
                       "and earlier batch completion (§7)");
  std::printf("%-10s %-10s %-10s %-10s %s\n", "mode", "first_s", "half_s",
              "all_s", "batch_done_s");
  const RampResult single = run(false);
  const RampResult spectrum = run(true);
  std::printf("%-10s %-10.0f %-10.0f %-10.0f %.0f\n", "single",
              single.first_worker_s, single.half_workers_s,
              single.all_workers_s, single.batch_done_s);
  std::printf("%-10s %-10.0f %-10.0f %-10.0f %.0f\n", "spectrum",
              spectrum.first_worker_s, spectrum.half_workers_s,
              spectrum.all_workers_s, spectrum.batch_done_s);
  return 0;
}
