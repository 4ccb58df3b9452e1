// Randomized stress tests for the whole JETS stack: mixed workloads,
// random faults, and the paper's §3 requirement scenario. The invariants:
// every submitted job settles, bookkeeping balances, nothing deadlocks.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/synthetic.hh"
#include "core/chaos.hh"
#include "core/standalone.hh"
#include "testutil.hh"

namespace jets::core {
namespace {

using test::service_counter;
using test::TestBed;

struct StressBed : TestBed {
  explicit StressBed(os::MachineSpec spec) : TestBed(std::move(spec)) {
    apps::install_synthetic_apps(apps);
    machine.shared_fs().put("sleep", 16'384);
    machine.shared_fs().put("mpi_sleep", 1'500'000);
  }
};

class JetsStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JetsStressTest, RandomMixedWorkloadAlwaysSettles) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed);
  constexpr std::size_t kNodes = 24;
  StressBed bed(os::Machine::breadboard(kNodes));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(3);
  options.worker.stage_files = {pmi::kProxyBinary, "mpi_sleep"};
  options.service.retry.max_attempts = 4;
  StandaloneJets jets(bed.machine, bed.apps, options);
  std::vector<os::NodeId> alloc;
  for (std::size_t i = 0; i < kNodes; ++i) alloc.push_back(static_cast<os::NodeId>(i));
  jets.start(alloc);

  std::vector<JobSpec> jobs;
  const int njobs = 40 + static_cast<int>(seed % 60);
  for (int i = 0; i < njobs; ++i) {
    JobSpec s;
    const double dur = rng.uniform(0.2, 5.0);
    if (rng.bernoulli(0.5)) {
      s.kind = JobKind::kMpi;
      s.nprocs = static_cast<int>(rng.uniform_int(2, 12));
      s.argv = {"mpi_sleep", std::to_string(dur)};
    } else {
      s.argv = {"sleep", std::to_string(dur)};
    }
    // A sprinkle of deadlines, some of them tight.
    if (rng.bernoulli(0.2)) {
      s.timeout = rng.uniform_duration(sim::seconds(1), sim::seconds(120));
    }
    jobs.push_back(std::move(s));
  }

  // Random worker kills during the run.
  std::vector<os::Machine::Pid> victims;
  for (const auto pid : jets.worker_pids()) {
    if (rng.bernoulli(0.25)) victims.push_back(pid);
  }
  ChaosEngine chaos(bed.machine, rng.fork("chaos"));
  chaos.set_pilots(victims);

  BatchReport report;
  bed.engine.spawn("driver", [](sim::Engine& engine, StandaloneJets& jets,
                                ChaosEngine& chaos, std::size_t nvictims,
                                std::vector<JobSpec> jobs,
                                BatchReport& out) -> sim::Task<void> {
    co_await jets.wait_workers();
    const sim::Duration every = sim::seconds(7);
    chaos.add_periodic(FaultKind::kKillPilot, engine.now() + every, every,
                       nvictims);
    chaos.start();
    out = co_await jets.run_batch(std::move(jobs));
  }(bed.engine, jets, chaos, victims.size(), std::move(jobs), report));
  bed.engine.run_until(sim::seconds(3600));

  // Invariant 1: the batch settled well before the horizon (no deadlock).
  ASSERT_LT(bed.engine.now(), sim::seconds(3600));
  // Invariant 2: every job is accounted for, exactly once.
  EXPECT_EQ(report.completed + report.failed, report.records.size());
  EXPECT_EQ(report.records.size(), static_cast<std::size_t>(njobs));
  for (const auto& rec : report.records) {
    EXPECT_TRUE(job_settled(rec.status));
    EXPECT_GE(rec.attempts, rec.status == JobStatus::kDone ? 1 : 0);
    EXPECT_LE(rec.attempts, 4);
    if (rec.status == JobStatus::kDone) {
      EXPECT_GE(rec.finished_at, rec.started_at);
    }
    // Attempt history mirrors the attempt counter, and every attempt but a
    // trailing in-flight one carries a settled end time.
    EXPECT_EQ(rec.history.size(), static_cast<std::size_t>(rec.attempts));
    for (const auto& att : rec.history) {
      EXPECT_GE(att.started_at, 0);
      EXPECT_GE(att.ended_at, att.started_at);
    }
  }
  // Invariant 3: no busy workers or queued jobs left behind.
  EXPECT_EQ(jets.service().running_jobs(), 0u);
  EXPECT_EQ(jets.service().pending_jobs(), 0u);
  // Invariant 4: utilization is a sane fraction.
  EXPECT_GE(report.utilization(), 0.0);
  EXPECT_LE(report.utilization(), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JetsStressTest,
                         ::testing::Values<std::uint64_t>(1, 2, 3, 13, 77,
                                                          1001, 424242));

// --- Chaos property test -----------------------------------------------------
//
// Like the stress test above, but the faults come from a random schedule
// over *all* chaos fault classes (kill, socket close, stall, hang, slow
// node), with the heartbeat/liveness machinery turned on. Each run is
// rebuilt from scratch from its seed, so running it twice must reproduce
// the exact same end state — the determinism half of the property.

/// Everything observable about one chaos run, serialized for comparison.
struct ChaosRunOutcome {
  BatchReport report;
  std::size_t njobs = 0;
  int max_attempts = 0;
  bool settled = false;
  bool ready_pool_ok = false;
  std::size_t running = 0;
  std::size_t pending = 0;
  std::string fingerprint;
};

ChaosRunOutcome run_chaos_stress(std::uint64_t seed) {
  sim::Rng rng(seed);
  constexpr std::size_t kNodes = 16;
  StressBed bed(os::Machine::breadboard(kNodes));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(3);
  options.worker.stage_files = {pmi::kProxyBinary, "mpi_sleep"};
  options.service.retry.max_attempts = 8;
  options.worker.heartbeat_interval = sim::milliseconds(500);
  options.service.worker_liveness_timeout = sim::seconds(3);
  auto registry = std::make_shared<WorkerHangRegistry>();
  options.worker.hang_registry = registry;
  StandaloneJets jets(bed.machine, bed.apps, options);
  std::vector<os::NodeId> alloc;
  for (std::size_t i = 0; i < kNodes; ++i) {
    alloc.push_back(static_cast<os::NodeId>(i));
  }
  jets.start(alloc);

  // Random job mix: sequential and small-MPI, some with deadlines.
  std::vector<JobSpec> jobs;
  const int njobs = 30 + static_cast<int>(seed % 40);
  for (int i = 0; i < njobs; ++i) {
    JobSpec s;
    const double dur = rng.uniform(0.2, 4.0);
    if (rng.bernoulli(0.4)) {
      s.kind = JobKind::kMpi;
      s.nprocs = static_cast<int>(rng.uniform_int(2, 8));
      s.argv = {"mpi_sleep", std::to_string(dur)};
    } else {
      s.argv = {"sleep", std::to_string(dur)};
    }
    if (rng.bernoulli(0.15)) {
      s.timeout = rng.uniform_duration(sim::seconds(2), sim::seconds(120));
    }
    jobs.push_back(std::move(s));
  }

  // Random fault schedule across every fault class. Hangs and stalls are
  // time-bounded and slow nodes heal, so the pool never shrinks below
  // what kills take — the batch must always settle.
  ChaosEngine chaos(bed.machine, rng.fork("chaos"));
  chaos.set_pilots(jets.worker_pids());
  chaos.set_hang_registry(registry);
  const int nfaults = 4 + static_cast<int>(seed % 5);
  int kills = 0;
  for (int i = 0; i < nfaults; ++i) {
    Fault f;
    f.at = rng.uniform_duration(sim::seconds(2), sim::seconds(40));
    switch (rng.uniform_int(0, 4)) {
      case 0:
        // At most a quarter of the pool dies outright.
        if (kills >= static_cast<int>(kNodes) / 4) continue;
        ++kills;
        f.kind = FaultKind::kKillPilot;
        break;
      case 1:
        f.kind = FaultKind::kSocketClose;
        break;
      case 2:
        f.kind = FaultKind::kSocketStall;
        f.duration = rng.uniform_duration(sim::seconds(2), sim::seconds(10));
        break;
      case 3:
        f.kind = FaultKind::kHangWorker;
        f.duration = rng.uniform_duration(sim::seconds(2), sim::seconds(10));
        break;
      default:
        f.kind = FaultKind::kSlowNode;
        f.exec_scale = rng.uniform(1.5, 4.0);
        f.compute_scale = rng.uniform(1.5, 4.0);
        f.duration = rng.uniform_duration(sim::seconds(5), sim::seconds(30));
        break;
    }
    chaos.add(f);
  }

  ChaosRunOutcome out;
  out.njobs = static_cast<std::size_t>(njobs);
  out.max_attempts = options.service.retry.max_attempts;
  bed.engine.spawn("driver", [](StandaloneJets& jets, ChaosEngine& chaos,
                                std::vector<JobSpec> jobs,
                                BatchReport& report) -> sim::Task<void> {
    co_await jets.wait_workers();
    chaos.start();
    report = co_await jets.run_batch(std::move(jobs));
  }(jets, chaos, std::move(jobs), out.report));
  bed.engine.run_until(sim::seconds(3600));

  out.settled = bed.engine.now() < sim::seconds(3600);
  out.ready_pool_ok = jets.service().ready_pool_consistent();
  out.running = jets.service().running_jobs();
  out.pending = jets.service().pending_jobs();
  for (const auto& rec : out.report.records) {
    out.fingerprint += std::to_string(static_cast<int>(rec.status)) + ":" +
                       std::to_string(rec.attempts) + ":" +
                       std::to_string(rec.finished_at) + ";";
  }
  const Service& svc = jets.service();
  out.fingerprint +=
      "|evicted=" + std::to_string(service_counter(svc, "workers.evicted")) +
      "|reenlisted=" +
      std::to_string(service_counter(svc, "workers.reenlisted")) +
      "|hb=" + std::to_string(service_counter(svc, "workers.heartbeats"));
  return out;
}

class ChaosPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosPropertyTest, RandomFaultScheduleSettlesAndReproduces) {
  const ChaosRunOutcome a = run_chaos_stress(GetParam());

  // Invariant 1: the batch settled before the horizon (no deadlock, no
  // job stranded on a disregarded worker).
  ASSERT_TRUE(a.settled);
  // Invariant 2: no job lost or double-counted.
  EXPECT_EQ(a.report.completed + a.report.failed, a.njobs);
  EXPECT_EQ(a.report.records.size(), a.njobs);
  for (const auto& rec : a.report.records) {
    EXPECT_TRUE(job_settled(rec.status));
    EXPECT_LE(rec.attempts, a.max_attempts);
  }
  // Invariant 3: service bookkeeping is clean after the dust settles.
  EXPECT_EQ(a.running, 0u);
  EXPECT_EQ(a.pending, 0u);
  EXPECT_TRUE(a.ready_pool_ok);

  // Invariant 4: a second run from the same seed lands in the exact same
  // end state (per-job status/attempts/finish times and fault counters).
  const ChaosRunOutcome b = run_chaos_stress(GetParam());
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosPropertyTest,
                         ::testing::Values<std::uint64_t>(5, 8, 21, 99, 7777));

// The paper's §3 target, scaled to a quarter rack: "64 concurrent
// simulations ... launch 6.4 MPI executions per second" — here 16
// concurrent 16-proc jobs (ppn 4 on 64 nodes) over 3 rounds, checking the
// sustained MPI-execution launch rate JETS achieves.
TEST(PaperRequirement, SustainsRemLaunchRateAtQuarterScale) {
  constexpr std::size_t kNodes = 64;
  StressBed bed(os::Machine::surveyor(kNodes));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(450);
  options.worker.stage_files = {pmi::kProxyBinary, "mpi_sleep"};
  options.service.mpi_job_overhead = sim::milliseconds(48);
  options.workers_per_node = 1;
  StandaloneJets jets(bed.machine, bed.apps, options);
  std::vector<os::NodeId> alloc;
  for (std::size_t i = 0; i < kNodes; ++i) alloc.push_back(static_cast<os::NodeId>(i));
  jets.start(alloc);

  // 3 rounds x 16 concurrent 16-proc segments of ~10 s (short REM
  // segments, "smaller individual runs produce finer granularity
  // exchanges, which are desirable").
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 48; ++i) {
    JobSpec s;
    s.kind = JobKind::kMpi;
    s.nprocs = 16;
    s.ppn = 4;
    s.argv = {"mpi_sleep", "10"};
    jobs.push_back(std::move(s));
  }
  BatchReport report;
  bed.engine.spawn("driver", [](StandaloneJets& jets, std::vector<JobSpec> jobs,
                                BatchReport& out) -> sim::Task<void> {
    co_await jets.wait_workers();
    out = co_await jets.run_batch(std::move(jobs));
  }(jets, std::move(jobs), report));
  bed.engine.run();

  ASSERT_EQ(report.completed, 48u);
  const double launches_per_second =
      static_cast<double>(report.completed) / report.makespan_seconds();
  // The §3 requirement is 6.4 MPI executions/s machine-wide; at 1/16 the
  // core count the proportional target is 0.4/s. JETS should beat it.
  EXPECT_GT(launches_per_second, 0.4);
  // And the implied individual-process launch rate (16 procs per exec).
  EXPECT_GT(launches_per_second * 16, 6.4);
}

TEST(PaperRequirement, TwelveHourWorkloadBookkeeping) {
  // A long-haul run: sustained short sequential tasks for 2 simulated
  // hours (scaled from the paper's 12 h REM campaign) — checks that
  // counters, gauges, and the dispatcher stay healthy over long horizons.
  constexpr std::size_t kNodes = 16;
  StressBed bed(os::Machine::breadboard(kNodes));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(5);
  options.worker.stage_files = {pmi::kProxyBinary, "sleep"};
  StandaloneJets jets(bed.machine, bed.apps, options);
  std::vector<os::NodeId> alloc;
  for (std::size_t i = 0; i < kNodes; ++i) alloc.push_back(static_cast<os::NodeId>(i));
  jets.start(alloc);
  // 16 workers x 2 h / ~5 s per task ~ 23k tasks.
  std::vector<JobSpec> jobs(23'000, JobSpec{});
  for (auto& j : jobs) j.argv = {"sleep", "5"};
  BatchReport report;
  bed.engine.spawn("driver", [](StandaloneJets& jets, std::vector<JobSpec> jobs,
                                BatchReport& out) -> sim::Task<void> {
    co_await jets.wait_workers();
    out = co_await jets.run_batch(std::move(jobs));
  }(jets, std::move(jobs), report));
  bed.engine.run();
  EXPECT_EQ(report.completed, 23'000u);
  EXPECT_GT(report.utilization(), 0.95);
  EXPECT_GT(report.makespan_seconds(), 3600.0);  // genuinely long-haul
}

}  // namespace
}  // namespace jets::core
