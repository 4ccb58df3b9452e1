// Elastic-allocation suite (ctest label "elastic"): the BatchScheduler's
// allocation-id lifecycle and typed AllocationError taxonomy (os/machine),
// the service's walltime-aware placement gate and infra-exempt
// kWalltimeDrain requeue (core/service), the swift::BlockAllocator
// controller (scale-out under backlog, scale-in on idle, drain-ahead,
// preemption), the Coasters spectrum degraded-start path, and the elastic
// section of the checkpoint codec. The invariants:
//
//   * release is idempotent by allocation id: double release, or releasing
//     a stale copy after the nodes were re-granted, never frees nodes out
//     from under a later allocation, and a released allocation's walltime
//     timer is disarmed;
//   * submit failures carry a typed kind (denied / out-of-nodes /
//     queue-starvation) instead of a bare runtime_error;
//   * a job requeued at a drain deadline is charged to NO budget (app or
//     infra) and its node takes no blacklist strike — walltime expiry is
//     the machine's fault, not the job's and not the node's;
//   * the claim gate refuses to start work a block's walltime is
//     guaranteed to kill (now + expected_runtime > expires_at);
//   * under preemption chaos every job still completes, and the whole
//     elastic run is a pure function of its seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/chaos.hh"
#include "core/snapshot.hh"
#include "core/standalone.hh"
#include "swift/allocator.hh"
#include "swift/coasters.hh"
#include "testutil.hh"

namespace jets {
namespace {

using test::ServiceBed;
using test::seq_job;
using test::service_counter;

// --- BatchScheduler allocation lifecycle -------------------------------------

TEST(ElasticBatch, ReleaseIsIdempotentById) {
  sim::Engine engine;
  os::Machine machine(engine, os::Machine::breadboard(8));
  os::BatchScheduler::Policy policy;
  policy.boot_time = sim::seconds(1);
  policy.base_queue_wait = sim::seconds(1);
  os::BatchScheduler sched(machine, policy, sim::Rng(1));
  engine.spawn("user", [](os::BatchScheduler& s) -> sim::Task<void> {
    auto first = co_await s.submit(4, sim::seconds(600));
    s.release(first);
    EXPECT_EQ(s.free_nodes(), 8u);
    s.release(first);  // double release: no-op
    EXPECT_EQ(s.free_nodes(), 8u);
    // The nodes are re-granted; releasing the stale copy again must not
    // free them out from under the new allocation.
    auto second = co_await s.submit(4, sim::seconds(600));
    EXPECT_NE(second.id, first.id);
    s.release(first);
    EXPECT_EQ(s.free_nodes(), 4u);
    s.release(second);
    EXPECT_EQ(s.free_nodes(), 8u);
  }(sched));
  engine.run();
}

TEST(ElasticBatch, ReleaseDisarmsWalltime) {
  sim::Engine engine;
  os::Machine machine(engine, os::Machine::breadboard(8));
  os::BatchScheduler::Policy policy;
  policy.boot_time = sim::seconds(1);
  policy.base_queue_wait = sim::seconds(1);
  policy.wait_per_node = 0;
  os::BatchScheduler sched(machine, policy, sim::Rng(2));
  bool survivor_killed = false;
  engine.spawn("user", [](os::Machine& machine, os::BatchScheduler& s,
                          bool& killed) -> sim::Task<void> {
    auto first = co_await s.submit(4, sim::seconds(30));
    s.enforce_walltime(first, {});
    s.release(first);  // before expiry: the walltime timer must disarm
    // Same nodes, re-granted with a longer horizon; a leaked timer from
    // `first` would kill this pilot at the old expiry.
    auto second = co_await s.submit(4, sim::seconds(600));
    std::vector<os::Machine::Pid> pilots;
    pilots.push_back(
        machine.exec(second.nodes[0], "pilot", [](bool* flag) -> sim::Task<void> {
          co_await sim::delay(sim::seconds(100));
          *flag = true;
        }(&killed)));
    s.enforce_walltime(second, pilots);
    co_await sim::delay(sim::seconds(120));
    s.release(second);
  }(machine, sched, survivor_killed));
  engine.run();
  // The pilot ran to its natural end (flag set), well past first's expiry.
  EXPECT_TRUE(survivor_killed);
  EXPECT_EQ(sched.free_nodes(), 8u);
}

TEST(ElasticBatch, ErrorTaxonomy) {
  sim::Engine engine;
  os::Machine machine(engine, os::Machine::breadboard(4));
  os::BatchScheduler::Policy policy;
  policy.boot_time = sim::seconds(1);
  policy.base_queue_wait = sim::seconds(1);
  policy.submit_timeout = sim::seconds(5);
  os::BatchScheduler sched(machine, policy, sim::Rng(3));
  std::vector<os::AllocationError::Kind> kinds;
  engine.spawn("user", [](os::BatchScheduler& s,
                          std::vector<os::AllocationError::Kind>& kinds)
                   -> sim::Task<void> {
    s.inject_denials(1);
    try {
      (void)co_await s.submit(2, sim::seconds(60));
    } catch (const os::AllocationError& e) {
      kinds.push_back(e.kind());
    }
    auto held = co_await s.submit(4, sim::seconds(600));
    try {
      (void)co_await s.submit(2, sim::seconds(60));  // machine is full
    } catch (const os::AllocationError& e) {
      kinds.push_back(e.kind());
    }
    s.release(held);
    s.inject_stall(sim::seconds(3600));  // way past submit_timeout
    try {
      (void)co_await s.submit(2, sim::seconds(60));
    } catch (const os::AllocationError& e) {
      kinds.push_back(e.kind());
    }
  }(sched, kinds));
  engine.run();
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], os::AllocationError::Kind::kDenied);
  EXPECT_EQ(kinds[1], os::AllocationError::Kind::kOutOfNodes);
  EXPECT_EQ(kinds[2], os::AllocationError::Kind::kQueueStarvation);
  EXPECT_STREQ(to_string(os::AllocationError::Kind::kDenied), "denied");
}

// --- Service drain + claim gate ----------------------------------------------

// The satellite's end-to-end scenario: a pilot block hits its drain
// deadline while a job runs on it. The job must come back as
// kWalltimeDrain — charged to neither budget, no blacklist strike — and
// complete on a surviving worker even with max_attempts = 1.
TEST(ElasticService, WalltimeDrainIsBlamelessAndRequeues) {
  ServiceBed bed(os::Machine::breadboard(4), {{"sleep", 16'384}});
  auto options = ServiceBed::fast_options();
  options.service.retry.max_attempts = 1;  // any charged failure is fatal
  options.service.blacklist_after = 1;     // any strike bans the node
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(ServiceBed::nodes(2));
  core::BatchReport report;
  bed.engine.spawn(
      "driver",
      [](ServiceBed& bed, core::StandaloneJets& jets,
         core::BatchReport& report) -> sim::Task<void> {
        co_await jets.wait_workers();
        // Node 0 hosts the doomed block. FIFO claim places the job there
        // (its worker registered first).
        jets.service().set_node_expiry(
            0, bed.engine.now() + sim::seconds(5));
        bed.engine.call_in(sim::seconds(2), [&bed, &jets] {
          // The allocator's drain protocol: requeue synchronously, then
          // kill the pilot (requeue strictly first).
          jets.service().drain_nodes({0}, bed.engine.now());
          bed.machine.kill(jets.worker_pids()[0]);
        });
        std::vector<core::JobSpec> jobs(1, seq_job({"sleep", "10"}));
        report = co_await jets.run_batch(std::move(jobs));
      }(bed, jets, report));
  bed.engine.run();
  ASSERT_EQ(report.records.size(), 1u);
  const core::JobRecord& rec = report.records[0];
  EXPECT_EQ(rec.status, core::JobStatus::kDone);
  EXPECT_EQ(rec.attempts, 2);
  ASSERT_GE(rec.history.size(), 1u);
  EXPECT_EQ(rec.history[0].reason, core::FailureReason::kWalltimeDrain);
  // Blameless: neither budget charged, so max_attempts = 1 still allowed
  // the retry...
  EXPECT_EQ(rec.app_failures, 0);
  EXPECT_EQ(rec.infra_failures, 0);
  // ...and blacklist_after = 1 took no strike against the node (the
  // checkpoint exposes the blacklist table).
  for (const auto& nh : jets.checkpoint().node_health) {
    EXPECT_FALSE(nh.banned) << "node " << nh.node;
  }
  EXPECT_EQ(service_counter(jets.service(), "elastic.drain_requeues"), 1u);
  // The retry ran on the surviving node.
  ASSERT_EQ(rec.nodes.size(), 1u);
  EXPECT_EQ(rec.nodes[0], 1u);
}

TEST(ElasticService, ClaimGateRefusesExpiringWorker) {
  ServiceBed bed(os::Machine::breadboard(4), {{"sleep", 16'384}});
  auto options = ServiceBed::fast_options();
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(ServiceBed::nodes(1));
  auto worker = options.worker;
  worker.service = jets.service().address();
  core::BatchReport report;
  bed.engine.spawn(
      "driver",
      [](ServiceBed& bed, core::StandaloneJets& jets, core::WorkerConfig worker,
         core::BatchReport& report) -> sim::Task<void> {
        co_await jets.wait_workers();
        // Node 0's block expires in 3 s; the job needs 10 s — placement
        // would be guaranteed-dead work, so the gate must refuse it.
        jets.service().set_node_expiry(
            0, bed.engine.now() + sim::seconds(3));
        auto spec = seq_job({"sleep", "10"});
        spec.expected_runtime = sim::seconds(10);
        // A fresh (non-elastic) worker arrives later; its registration
        // re-triggers dispatch and the job runs there.
        bed.engine.call_in(sim::seconds(5), [&bed, worker] {
          core::start_worker(bed.machine, bed.apps, 1, worker);
        });
        std::vector<core::JobSpec> jobs(1, spec);
        report = co_await jets.run_batch(std::move(jobs));
      }(bed, jets, worker, report));
  bed.engine.run();
  ASSERT_EQ(report.records.size(), 1u);
  const core::JobRecord& rec = report.records[0];
  EXPECT_EQ(rec.status, core::JobStatus::kDone);
  EXPECT_EQ(rec.attempts, 1);  // never started on the expiring worker
  ASSERT_EQ(rec.nodes.size(), 1u);
  EXPECT_EQ(rec.nodes[0], 1u);
  EXPECT_GE(service_counter(jets.service(), "elastic.gate_refusals"), 1u);
}

// --- BlockAllocator controller -----------------------------------------------

swift::ElasticPolicy fast_policy() {
  swift::ElasticPolicy ep;
  ep.min_nodes = 0;
  ep.max_nodes = 8;
  ep.block_size = 2;
  ep.backlog_high = 1;
  ep.poll_interval = sim::seconds(1);
  ep.idle_before_shrink = sim::seconds(3);
  ep.walltime = sim::seconds(600);  // no expiry drains in short tests
  ep.drain_lead = sim::seconds(30);
  ep.drain_grace = sim::seconds(5);
  ep.retry_backoff = sim::seconds(1);
  return ep;
}

os::BatchScheduler::Policy fast_batch() {
  os::BatchScheduler::Policy bp;
  bp.boot_time = sim::seconds(1);
  bp.base_queue_wait = sim::seconds(1);
  bp.wait_per_node = sim::milliseconds(50);
  return bp;
}

TEST(BlockAllocator, ScalesOutUnderBacklogAndInOnIdle) {
  ServiceBed bed(os::Machine::breadboard(16), {{"sleep", 16'384}});
  auto options = ServiceBed::fast_options();
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start({});  // service only; the allocator provisions the pool
  os::BatchScheduler sched(bed.machine, fast_batch(), sim::Rng(5));
  swift::BlockAllocator alloc(bed.machine, bed.apps, jets.service(), sched,
                              options.worker, fast_policy());
  core::BatchReport report;
  std::size_t pool_after_idle = 0;
  bed.engine.spawn(
      "driver",
      [](core::StandaloneJets& jets, swift::BlockAllocator& alloc,
         core::BatchReport& report, std::size_t& pool_after_idle)
          -> sim::Task<void> {
        alloc.start();
        std::vector<core::JobSpec> jobs(20, seq_job({"sleep", "1"}));
        report = co_await jets.run_batch(std::move(jobs));
        // Idle long past idle_before_shrink: the pool must shrink back.
        co_await sim::delay(sim::seconds(30));
        pool_after_idle = alloc.pool_nodes();
        alloc.stop();
      }(jets, alloc, report, pool_after_idle));
  bed.engine.run();
  EXPECT_EQ(report.completed, 20u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GE(alloc.counters().scale_outs, 1u);
  EXPECT_GE(alloc.peak_pool_nodes(), 2u);
  EXPECT_GE(alloc.counters().scale_ins, 1u);
  EXPECT_LT(pool_after_idle, alloc.peak_pool_nodes());
  EXPECT_EQ(alloc.pool_nodes(), 0u);  // stop() tore the pool down
  EXPECT_EQ(sched.free_nodes(), 16u);
  EXPECT_EQ(bed.machine.process_count(), 0u);
}

TEST(BlockAllocator, RetriesDeniedSubmits) {
  ServiceBed bed(os::Machine::breadboard(16), {{"sleep", 16'384}});
  auto options = ServiceBed::fast_options();
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start({});
  os::BatchScheduler sched(bed.machine, fast_batch(), sim::Rng(6));
  sched.inject_denials(2);  // first two submits bounce
  swift::BlockAllocator alloc(bed.machine, bed.apps, jets.service(), sched,
                              options.worker, fast_policy());
  core::BatchReport report;
  bed.engine.spawn(
      "driver",
      [](core::StandaloneJets& jets, swift::BlockAllocator& alloc,
         core::BatchReport& report) -> sim::Task<void> {
        alloc.start();
        std::vector<core::JobSpec> jobs(8, seq_job({"sleep", "1"}));
        report = co_await jets.run_batch(std::move(jobs));
        alloc.stop();
      }(jets, alloc, report));
  bed.engine.run();
  EXPECT_EQ(report.completed, 8u);
  EXPECT_GE(alloc.counters().submits_denied, 1u);
  EXPECT_GE(alloc.counters().submit_retries, 1u);
}

// One full allocator scenario under preemption chaos, reduced to its
// observable outcome. Run twice by the determinism test below.
struct PreemptOutcome {
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t preempt_drains = 0;
  std::uint64_t digest = 0;  // folded per-job record digests

  friend bool operator==(const PreemptOutcome&, const PreemptOutcome&) = default;
};

PreemptOutcome run_preempt_scenario() {
  ServiceBed bed(os::Machine::breadboard(16), {{"sleep", 16'384}});
  auto options = ServiceBed::fast_options();
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start({});
  os::BatchScheduler sched(bed.machine, fast_batch(), sim::Rng(7));
  auto ep = fast_policy();
  ep.max_nodes = 6;
  swift::BlockAllocator alloc(bed.machine, bed.apps, jets.service(), sched,
                              options.worker, ep);
  core::ChaosEngine chaos(bed.machine, sim::Rng(7).fork("chaos"));
  chaos.set_batch_scheduler(&sched);
  chaos.add({.at = sim::seconds(8), .kind = core::FaultKind::kPreemption});
  chaos.add({.at = sim::seconds(12), .kind = core::FaultKind::kPreemption});
  core::BatchReport report;
  bed.engine.spawn(
      "driver",
      [](core::StandaloneJets& jets, swift::BlockAllocator& alloc,
         core::ChaosEngine& chaos, core::BatchReport& report)
          -> sim::Task<void> {
        alloc.start();
        chaos.start();
        auto spec = seq_job({"sleep", "2"});
        spec.expected_runtime = sim::seconds(2);
        std::vector<core::JobSpec> jobs(30, spec);
        report = co_await jets.run_batch(std::move(jobs));
        alloc.stop();
      }(jets, alloc, chaos, report));
  bed.engine.run();
  PreemptOutcome out;
  out.completed = report.completed;
  out.failed = report.failed;
  out.preempt_drains = alloc.counters().preempt_drains;
  for (const auto& rec : report.records) {
    out.digest = out.digest * 1099511628211ull ^ core::record_digest(rec);
  }
  return out;
}

TEST(BlockAllocator, PreemptionLosesNoJobsAndIsDeterministic) {
  const PreemptOutcome a = run_preempt_scenario();
  EXPECT_EQ(a.completed, 30u);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_GE(a.preempt_drains, 1u);
  // Same seeds, same workload => identical schedule, job for job.
  const PreemptOutcome b = run_preempt_scenario();
  EXPECT_EQ(a, b);
}

// --- Coasters spectrum degraded start ----------------------------------------

TEST(ElasticCoasters, SpectrumProceedsDegradedWhenABlockIsDenied) {
  test::TestBed bed(os::Machine::eureka(32));
  apps::install_synthetic_apps(bed.apps);
  bed.machine.shared_fs().put("sleep", 16'384);
  os::BatchScheduler::Policy bp;
  bp.boot_time = sim::seconds(1);
  bp.base_queue_wait = sim::seconds(1);
  os::BatchScheduler sched(bed.machine, bp, sim::Rng(9));
  // The first (largest) spectrum block is denied; the rest must still
  // arrive and the service must keep working with what it got.
  sched.inject_denials(1);
  swift::CoasterService::Config cfg;
  cfg.worker.task_overhead = sim::milliseconds(2);
  swift::CoasterService coasters(bed.machine, bed.apps, cfg);
  coasters.start_with_blocks(sched, 16, sim::seconds(7200), /*spectrum=*/true);
  core::JobRecord rec;
  bed.engine.spawn("job",
                   [](swift::CoasterService& c,
                      core::JobRecord& rec) -> sim::Task<void> {
                     core::JobSpec spec = seq_job({"sleep", "1"});
                     rec = co_await c.run_job(std::move(spec));
                   }(coasters, rec));
  bed.engine.run_until(sim::seconds(600));
  EXPECT_EQ(coasters.blocks_failed(), 1u);
  // Spectrum for 16 nodes: blocks 8+4+2+1+1; losing the 8 leaves 8.
  EXPECT_EQ(coasters.worker_count(), 8u);
  EXPECT_EQ(rec.status, core::JobStatus::kDone);
}

// --- Checkpoint round-trip ---------------------------------------------------

TEST(ElasticSnapshot, CodecRoundTripsElasticSection) {
  core::Snapshot snap;
  snap.taken_at = sim::seconds(42);
  snap.elastic_capacity = 64;
  snap.elastic.push_back({.node = 3,
                          .expires_at = sim::seconds(900),
                          .draining = false,
                          .drain_at = -1});
  snap.elastic.push_back({.node = 7,
                          .expires_at = sim::seconds(120),
                          .draining = true,
                          .drain_at = sim::seconds(110)});
  const auto bytes = snap.serialize();
  const core::Snapshot back = core::Snapshot::parse(bytes);
  EXPECT_EQ(back, snap);
}

TEST(ElasticSnapshot, CheckpointCapturesNodeState) {
  ServiceBed bed(os::Machine::breadboard(4), {{"sleep", 16'384}});
  core::StandaloneJets jets(bed.machine, bed.apps, ServiceBed::fast_options());
  jets.start(ServiceBed::nodes(2));
  core::Snapshot snap;
  bed.engine.spawn("driver",
                   [](ServiceBed& bed, core::StandaloneJets& jets,
                      core::Snapshot& snap) -> sim::Task<void> {
                     co_await jets.wait_workers();
                     jets.service().set_elastic_capacity(32);
                     jets.service().set_node_expiry(
                         0, bed.engine.now() + sim::seconds(300));
                     jets.service().drain_nodes(
                         {1}, bed.engine.now() + sim::seconds(60));
                     snap = jets.checkpoint();
                   }(bed, jets, snap));
  bed.engine.run();
  EXPECT_EQ(snap.elastic_capacity, 32u);
  ASSERT_EQ(snap.elastic.size(), 2u);
  EXPECT_EQ(snap.elastic[0].node, 0u);
  EXPECT_FALSE(snap.elastic[0].draining);
  EXPECT_GT(snap.elastic[0].expires_at, 0);
  EXPECT_EQ(snap.elastic[1].node, 1u);
  EXPECT_TRUE(snap.elastic[1].draining);
  EXPECT_GT(snap.elastic[1].drain_at, 0);
  // And the codec preserves it byte-for-byte.
  EXPECT_EQ(core::Snapshot::parse(snap.serialize()), snap);
}

}  // namespace
}  // namespace jets
