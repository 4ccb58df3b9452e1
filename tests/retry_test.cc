// Failure-taxonomy and retry-policy-engine tests (ctest label: retry).
//
// One chaos-driven scenario per FailureReason, each asserting the reason
// recorded in the job's attempt history, plus:
//
//   * exponential-backoff schedule shape (jitter disabled) and quarantine
//     once the app budget is exhausted;
//   * infra-exempt budgets: a launch timeout must not consume the
//     app-failure attempt budget;
//   * per-spec RetryPolicy overrides;
//   * blacklist probation/parole;
//   * same-seed determinism of attempt histories and backoff schedules.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/synthetic.hh"
#include "core/chaos.hh"
#include "core/standalone.hh"
#include "testutil.hh"

namespace jets::core {
namespace {

using test::mpi_job;
using test::seq_job;
using test::service_counter;

struct RetryBed : test::ServiceBed {
  explicit RetryBed(os::MachineSpec spec)
      : ServiceBed(std::move(spec),
                   {{"sleep", 16'384}, {"mpi_sleep", 1'500'000}}) {}
};

/// Drives a batch to completion (workers booted first, chaos optional).
BatchReport run(RetryBed& bed, StandaloneJets& jets, ChaosEngine* chaos,
                std::vector<JobSpec> jobs,
                sim::Duration submit_delay = 0) {
  return bed.run_chaos(jets, chaos, std::move(jobs), submit_delay);
}

// --- Taxonomy: one scenario per failure class --------------------------------

// kAppExit + quarantine + backoff schedule: an app that cannot run exits
// nonzero every attempt; with jitter disabled the recorded backoff delays
// follow base * factor^(n-1) exactly, and exhausting the budget lands the
// job in kQuarantined, not kFailed.
TEST(RetryTaxonomy, AppExitQuarantinesWithExponentialBackoff) {
  RetryBed bed(os::Machine::breadboard(1));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  options.service.retry.max_attempts = 4;
  options.service.retry.backoff_base = sim::milliseconds(100);
  options.service.retry.backoff_factor = 2.0;
  options.service.retry.backoff_jitter = 0.0;
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(RetryBed::nodes(1));

  BatchReport report = run(bed, jets, nullptr, {seq_job({"no_such_app"})});

  ASSERT_EQ(report.records.size(), 1u);
  const JobRecord& rec = report.records[0];
  EXPECT_EQ(rec.status, JobStatus::kQuarantined);
  EXPECT_EQ(rec.last_reason, FailureReason::kAppExit);
  EXPECT_EQ(rec.attempts, 4);
  EXPECT_EQ(rec.app_failures, 4);
  EXPECT_EQ(rec.infra_failures, 0);
  ASSERT_EQ(rec.history.size(), 4u);
  for (const AttemptRecord& att : rec.history) {
    EXPECT_EQ(att.reason, FailureReason::kAppExit);
    EXPECT_NE(att.exit_status, 0);
    EXPECT_GE(att.ended_at, att.started_at);
  }
  EXPECT_EQ(rec.history[0].backoff, sim::milliseconds(100));
  EXPECT_EQ(rec.history[1].backoff, sim::milliseconds(200));
  EXPECT_EQ(rec.history[2].backoff, sim::milliseconds(400));
  EXPECT_EQ(rec.history[3].backoff, 0);  // terminal: no retry scheduled
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(service_counter(jets.service(), "jobs.quarantined"), 1u);
  EXPECT_EQ(service_counter(jets.service(), "failures.app-exit"), 4u);
  EXPECT_EQ(jets.service().retries_scheduled(), 3u);
}

// kWorkerLost: the socket to the worker running the job resets; the service
// sees EOF, classifies the attempt, and the retry (after backoff) succeeds.
TEST(RetryTaxonomy, SocketCloseRecordsWorkerLost) {
  RetryBed bed(os::Machine::breadboard(2));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(RetryBed::nodes(2));

  ChaosEngine chaos(bed.machine, sim::Rng(1));
  chaos.add({.at = sim::seconds(2), .kind = FaultKind::kSocketClose, .node = 0});

  BatchReport report =
      run(bed, jets, &chaos, std::vector<JobSpec>(2, seq_job({"sleep", "10"})));

  EXPECT_EQ(report.completed, 2u);
  const JobRecord* retried = nullptr;
  for (const JobRecord& rec : report.records) {
    if (rec.attempts > 1) retried = &rec;
  }
  ASSERT_NE(retried, nullptr);
  ASSERT_EQ(retried->history.size(), 2u);
  EXPECT_EQ(retried->history[0].reason, FailureReason::kWorkerLost);
  EXPECT_GT(retried->history[0].backoff, 0);
  EXPECT_EQ(retried->history[1].reason, FailureReason::kNone);
  EXPECT_EQ(retried->infra_failures, 1);
  EXPECT_EQ(retried->app_failures, 0);
  EXPECT_EQ(service_counter(jets.service(), "failures.worker-lost"), 1u);
}

// kLivenessEvicted: a hung pilot keeps its socket open; only the liveness
// deadline can catch it, and the attempt is classified as an eviction.
TEST(RetryTaxonomy, HangRecordsLivenessEvicted) {
  RetryBed bed(os::Machine::breadboard(2));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  options.worker.heartbeat_interval = sim::milliseconds(500);
  options.service.worker_liveness_timeout = sim::seconds(2);
  auto registry = std::make_shared<WorkerHangRegistry>();
  options.worker.hang_registry = registry;
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(RetryBed::nodes(2));

  ChaosEngine chaos(bed.machine, sim::Rng(1));
  chaos.set_hang_registry(registry);
  chaos.add({.at = sim::seconds(2), .kind = FaultKind::kHangWorker, .node = 0});

  BatchReport report =
      run(bed, jets, &chaos, std::vector<JobSpec>(2, seq_job({"sleep", "10"})));

  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(service_counter(jets.service(), "workers.evicted"), 1u);
  const JobRecord* retried = nullptr;
  for (const JobRecord& rec : report.records) {
    if (rec.attempts > 1) retried = &rec;
  }
  ASSERT_NE(retried, nullptr);
  EXPECT_EQ(retried->history[0].reason, FailureReason::kLivenessEvicted);
  EXPECT_GT(retried->history[0].backoff, 0);
  EXPECT_EQ(service_counter(jets.service(), "failures.liveness-evicted"),
            1u);
}

// kGangPartnerLost + kServiceAbort: killing one pilot of a two-worker gang
// classifies the attempt as a partner loss; with the machine now
// permanently below the job's width, the retry engine fails it with
// kServiceAbort instead of letting wait_all hang.
TEST(RetryTaxonomy, GangPartnerLossThenUnsatisfiableWidth) {
  RetryBed bed(os::Machine::breadboard(2));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  options.worker.stage_files = {pmi::kProxyBinary, "mpi_sleep"};
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(RetryBed::nodes(2));

  ChaosEngine chaos(bed.machine, sim::Rng(1));
  chaos.set_pilots(jets.worker_pids());
  chaos.add({.at = sim::seconds(2), .kind = FaultKind::kKillPilot, .node = 0});

  BatchReport report =
      run(bed, jets, &chaos, {mpi_job(2, {"mpi_sleep", "10"})});

  ASSERT_EQ(report.records.size(), 1u);
  const JobRecord& rec = report.records[0];
  EXPECT_EQ(rec.status, JobStatus::kFailed);
  ASSERT_GE(rec.history.size(), 1u);
  EXPECT_EQ(rec.history[0].reason, FailureReason::kGangPartnerLost);
  EXPECT_GT(rec.history[0].backoff, 0);
  // Settled by the degradation check, not by a deadline (none is set).
  EXPECT_EQ(rec.last_reason, FailureReason::kServiceAbort);
  EXPECT_EQ(service_counter(jets.service(), "failures.gang-partner-lost"),
            1u);
  EXPECT_EQ(service_counter(jets.service(), "failures.service-abort"),
            1u);
}

// kLaunchTimeout: a pilot hung *before* the proxy dials back leaves mpiexec
// wired to nothing; the launch-phase deadline fails the attempt fast, the
// failure does not consume the app budget (infra_exempt), and the retry —
// after a visible backoff — completes on the healthy worker.
TEST(RetryTaxonomy, HangBeforeDialBackRecordsLaunchTimeout) {
  RetryBed bed(os::Machine::breadboard(2));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  options.worker.stage_files = {pmi::kProxyBinary, "mpi_sleep"};
  options.service.mpi_launch_timeout = sim::seconds(1);
  options.service.retry.infra_exempt = true;
  options.service.retry.max_attempts = 1;  // an app failure would be final
  auto registry = std::make_shared<WorkerHangRegistry>();
  options.worker.hang_registry = registry;
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(RetryBed::nodes(2));

  // Freeze the node-0 pilot while it is *idle* in the ready pool, then
  // submit: the run message is never handled, so no proxy ever dials back.
  ChaosEngine chaos(bed.machine, sim::Rng(1));
  chaos.set_hang_registry(registry);
  chaos.add({.at = sim::seconds(1), .kind = FaultKind::kHangWorker, .node = 0});

  BatchReport report = run(bed, jets, &chaos, {mpi_job(1, {"mpi_sleep", "2"})},
                           /*submit_delay=*/sim::seconds(2));

  ASSERT_EQ(report.records.size(), 1u);
  const JobRecord& rec = report.records[0];
  EXPECT_EQ(rec.status, JobStatus::kDone);
  EXPECT_EQ(rec.attempts, 2);
  ASSERT_EQ(rec.history.size(), 2u);
  EXPECT_EQ(rec.history[0].reason, FailureReason::kLaunchTimeout);
  EXPECT_GT(rec.history[0].backoff, 0);  // backoff delay visible in history
  EXPECT_EQ(rec.history[1].reason, FailureReason::kNone);
  // The launch timeout was charged to the infra budget, not the app budget:
  // with max_attempts=1 an app-charged failure could never have retried.
  EXPECT_EQ(rec.app_failures, 0);
  EXPECT_EQ(rec.infra_failures, 1);
  EXPECT_EQ(service_counter(jets.service(), "failures.launch-timeout"),
            1u);
}

// kJobDeadline: the per-job timeout fires mid-run; the attempt records the
// deadline and the job settles as kFailed (terminal — deadlines never
// retry), with exit status 124.
TEST(RetryTaxonomy, DeadlineRecordsJobDeadline) {
  RetryBed bed(os::Machine::breadboard(1));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(RetryBed::nodes(1));

  JobSpec spec = seq_job({"sleep", "30"});
  spec.timeout = sim::seconds(2);
  BatchReport report = run(bed, jets, nullptr, {spec});

  ASSERT_EQ(report.records.size(), 1u);
  const JobRecord& rec = report.records[0];
  EXPECT_EQ(rec.status, JobStatus::kFailed);
  EXPECT_EQ(rec.last_reason, FailureReason::kJobDeadline);
  EXPECT_EQ(rec.attempts, 1);
  ASSERT_EQ(rec.history.size(), 1u);
  EXPECT_EQ(rec.history[0].reason, FailureReason::kJobDeadline);
  EXPECT_EQ(rec.history[0].exit_status, 124);
  EXPECT_EQ(rec.history[0].backoff, 0);
  EXPECT_EQ(service_counter(jets.service(), "failures.job-deadline"), 1u);
}

// kServiceAbort without any attempt: every worker of a once-large-enough
// machine is evicted and blacklisted while a wide job waits; the job (and
// the evictees' retries) settle with kServiceAbort instead of hanging.
TEST(RetryTaxonomy, ShrunkMachineAbortsQueuedWideJob) {
  RetryBed bed(os::Machine::breadboard(2));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  options.worker.stage_files = {pmi::kProxyBinary, "mpi_sleep"};
  options.worker.heartbeat_interval = sim::milliseconds(500);
  options.service.worker_liveness_timeout = sim::seconds(2);
  options.service.blacklist_after = 1;  // evictions are permanent
  auto registry = std::make_shared<WorkerHangRegistry>();
  options.worker.hang_registry = registry;
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(RetryBed::nodes(2));

  ChaosEngine chaos(bed.machine, sim::Rng(1));
  chaos.set_hang_registry(registry);
  chaos.add({.at = sim::seconds(2), .kind = FaultKind::kHangWorker, .node = 0});
  chaos.add({.at = sim::seconds(2), .kind = FaultKind::kHangWorker, .node = 1});

  // Two sequential jobs occupy both workers; the wide gang waits behind.
  std::vector<JobSpec> jobs(2, seq_job({"sleep", "30"}));
  jobs.push_back(mpi_job(2, {"mpi_sleep", "1"}));
  BatchReport report = run(bed, jets, &chaos, std::move(jobs));

  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(report.failed, 3u);
  EXPECT_EQ(service_counter(jets.service(), "workers.evicted"), 2u);
  for (const JobRecord& rec : report.records) {
    EXPECT_EQ(rec.status, JobStatus::kFailed);
    EXPECT_EQ(rec.last_reason, FailureReason::kServiceAbort);
  }
  // The wide job never got an attempt; the sequential jobs each lost one
  // to an eviction first.
  EXPECT_EQ(service_counter(jets.service(), "failures.liveness-evicted"),
            2u);
  EXPECT_EQ(service_counter(jets.service(), "failures.service-abort"),
            3u);
}

// --- Policy engine mechanics -------------------------------------------------

// A JobSpec-level RetryPolicy overrides the service default wholesale.
TEST(RetryPolicyEngine, PerSpecOverride) {
  RetryBed bed(os::Machine::breadboard(1));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  options.service.retry.max_attempts = 3;
  options.service.retry.backoff_base = sim::milliseconds(10);
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(RetryBed::nodes(1));

  JobSpec stubborn = seq_job({"no_such_app"});
  JobSpec one_shot = seq_job({"no_such_app"});
  RetryPolicy pol;
  pol.max_attempts = 1;
  one_shot.retry = pol;
  BatchReport report = run(bed, jets, nullptr, {stubborn, one_shot});

  ASSERT_EQ(report.records.size(), 2u);
  EXPECT_EQ(report.records[0].attempts, 3);  // service default
  EXPECT_EQ(report.records[1].attempts, 1);  // per-spec override
  EXPECT_EQ(report.quarantined, 2u);
}

// Blacklist probation: a banned node is refused during the window, then
// paroled (with its eviction count halved) and re-enlisted after it.
TEST(RetryPolicyEngine, BlacklistProbationParolesNode) {
  RetryBed bed(os::Machine::breadboard(2));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  options.worker.heartbeat_interval = sim::milliseconds(500);
  options.service.worker_liveness_timeout = sim::seconds(2);
  options.service.blacklist_after = 1;
  options.service.blacklist_probation = sim::seconds(10);
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(RetryBed::nodes(2));

  // Stall node 0 for 8 s: it is evicted (~3 s) and banned; its stall drains
  // at ~9 s, within probation, so its first "ready" is refused; a later
  // task's traffic has it re-enlisting after parole at ~13 s.
  ChaosEngine chaos(bed.machine, sim::Rng(1));
  chaos.add({.at = sim::seconds(1),
             .kind = FaultKind::kSocketStall,
             .node = 0,
             .duration = sim::seconds(8)});

  std::vector<JobSpec> jobs(5, seq_job({"sleep", "5"}));
  BatchReport report = run(bed, jets, &chaos, std::move(jobs));

  EXPECT_EQ(report.completed, 5u);
  EXPECT_EQ(service_counter(jets.service(), "workers.evicted"), 1u);
  // Rejected during probation, re-enlisted after parole.
  EXPECT_GE(service_counter(jets.service(), "blacklist.rejections"), 1u);
  EXPECT_EQ(service_counter(jets.service(), "blacklist.paroles"), 1u);
  EXPECT_EQ(service_counter(jets.service(), "workers.reenlisted"), 1u);
  EXPECT_TRUE(jets.service().ready_pool_consistent());
}

// --- Determinism -------------------------------------------------------------

std::string history_fingerprint(std::uint64_t seed) {
  RetryBed bed(os::Machine::breadboard(4));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  options.service.retry.max_attempts = 10;
  options.service.retry.jitter_seed = seed;
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(RetryBed::nodes(4));

  ChaosEngine chaos(bed.machine, sim::Rng(seed));
  Fault f;
  f.kind = FaultKind::kSocketClose;
  f.at = sim::seconds(2);
  chaos.add(f);
  f.at = sim::seconds(5);
  chaos.add(f);

  BatchReport report = run(
      bed, jets, &chaos, std::vector<JobSpec>(12, seq_job({"sleep", "3"})));

  std::string fp;
  for (const JobRecord& rec : report.records) {
    fp += std::to_string(static_cast<int>(rec.status)) + "/" +
          std::to_string(rec.attempts) + "[";
    for (const AttemptRecord& att : rec.history) {
      fp += std::to_string(att.attempt) + ":" +
            std::to_string(att.started_at) + ":" +
            std::to_string(att.ended_at) + ":" +
            std::to_string(static_cast<int>(att.reason)) + ":" +
            std::to_string(att.backoff) + ",";
    }
    fp += "];";
  }
  return fp;
}

// Same seed => byte-identical attempt histories *including* the jittered
// backoff schedule.
TEST(RetryDeterminism, SameSeedSameHistoriesAndBackoffs) {
  EXPECT_EQ(history_fingerprint(5), history_fingerprint(5));
  EXPECT_EQ(history_fingerprint(17), history_fingerprint(17));
}

}  // namespace
}  // namespace jets::core
