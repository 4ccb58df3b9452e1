// Scenario — elastic pilot allocations (DESIGN.md §12). Not a paper
// figure: the goldens cover the paper only.
//
// The fig07 Breadboard cluster driven through an elastic BlockAllocator
// instead of a fixed allocation. Two bursts of sequential work separated
// by an idle window, under allocation-denial and preemption chaos, with a
// walltime short enough that blocks expire (and drain) mid burst. Prints
// "# elastic key=value" rows; scripts/check.sh requires zero jobs lost to
// walltime and zero failed. Seeded end to end: two runs print
// byte-identical output.
#include <cstdio>
#include <string>

#include "core/chaos.hh"
#include "harness.hh"
#include "swift/allocator.hh"

using namespace jets;

int main() {
  bench::Bed bed(os::Machine::breadboard(32));
  auto options = bench::x86_options(/*workers_per_node=*/1);
  options.worker.stage_files = {"sleep"};
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start({});  // service only; the allocator provisions the pool

  os::BatchScheduler::Policy bp;
  bp.boot_time = sim::seconds(2);
  bp.base_queue_wait = sim::seconds(2);
  bp.wait_per_node = sim::milliseconds(100);
  bp.min_nodes = 1;
  bp.submit_timeout = sim::seconds(30);
  os::BatchScheduler sched(bed.machine, bp, sim::Rng(2011).fork("batch"));

  swift::ElasticPolicy ep;
  ep.min_nodes = 0;
  ep.max_nodes = 16;
  ep.block_size = 4;
  ep.backlog_high = 2;
  ep.poll_interval = sim::seconds(1);
  ep.idle_before_shrink = sim::seconds(6);
  ep.walltime = sim::seconds(45);
  ep.drain_lead = sim::seconds(15);
  ep.drain_grace = sim::seconds(5);
  ep.retry_backoff = sim::seconds(2);
  swift::BlockAllocator alloc(bed.machine, bed.apps, jets.service(), sched,
                              options.worker, ep);

  core::ChaosEngine chaos(bed.machine, sim::Rng(2011).fork("chaos"));
  chaos.set_batch_scheduler(&sched);
  chaos.add({.at = sim::seconds(3), .kind = core::FaultKind::kAllocationDeny});
  chaos.add({.at = sim::seconds(4), .kind = core::FaultKind::kAllocationDeny});
  chaos.add({.at = sim::seconds(40), .kind = core::FaultKind::kPreemption});
  chaos.add({.at = sim::seconds(55), .kind = core::FaultKind::kPreemption});

  const auto burst = [](std::size_t n, int seconds) {
    core::JobSpec spec = bench::seq_job({"sleep", std::to_string(seconds)});
    spec.expected_runtime = sim::seconds(seconds);
    return std::vector<core::JobSpec>(n, spec);
  };

  core::BatchReport r1, r2;
  bed.run([&]() -> sim::Task<void> {
    alloc.start();
    chaos.start();
    r1 = co_await jets.run_batch(burst(60, 1));
    co_await sim::delay(sim::seconds(20));  // idle window: scale-in fires
    r2 = co_await jets.run_batch(burst(240, 2));
    alloc.stop();
  });

  std::size_t lost = 0;
  for (const auto* report : {&r1, &r2}) {
    for (const auto& rec : report->records) {
      if (rec.status != core::JobStatus::kDone &&
          rec.last_reason == core::FailureReason::kWalltimeDrain) {
        ++lost;
      }
    }
  }
  const auto& ec = alloc.counters();
  std::printf("# elastic ramp_s=%.3f\n", sim::to_seconds(alloc.first_grant_at()));
  std::printf("# elastic peak_nodes=%zu\n", alloc.peak_pool_nodes());
  std::printf("# elastic scale_outs=%zu\n", ec.scale_outs);
  std::printf("# elastic scale_ins=%zu\n", ec.scale_ins);
  std::printf("# elastic expiry_drains=%zu\n", ec.expiry_drains);
  std::printf("# elastic preempt_drains=%zu\n", ec.preempt_drains);
  std::printf("# elastic denied=%zu\n", ec.submits_denied);
  std::printf("# elastic submit_retries=%zu\n", ec.submit_retries);
  std::printf("# elastic drain_requeues=%zu\n",
              bench::service_counter(jets.service(), "elastic.drain_requeues"));
  std::printf("# elastic gate_refusals=%zu\n",
              bench::service_counter(jets.service(), "elastic.gate_refusals"));
  std::printf("# elastic completed=%zu\n", r1.completed + r2.completed);
  std::printf("# elastic failed=%zu\n", r1.failed + r2.failed);
  std::printf("# elastic jobs_lost_to_walltime=%zu\n", lost);
  return 0;
}
