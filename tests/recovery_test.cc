// Checkpoint/restore suite (core/snapshot.hh): the codec, checkpoint
// purity, deterministic replay, crash-rescue of in-flight work, the
// kServiceRestart budget exemption, ghost reconciliation, and the
// chaos-driven service-crash-and-recover fault class. The invariants:
//
//   * Snapshot == parse(serialize(Snapshot)) for arbitrary state;
//   * taking a checkpoint perturbs nothing (same digests with/without);
//   * two same-seed runs checkpoint byte-identically (replay determinism);
//   * a crash + restore loses no jobs: every submitted job still settles,
//     and service-restart attempts are charged to no retry budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/synthetic.hh"
#include "core/chaos.hh"
#include "obs/tracer.hh"
#include "core/snapshot.hh"
#include "core/standalone.hh"
#include "testutil.hh"

namespace jets::core {
namespace {

using test::mpi_job;
using test::seq_job;
using test::service_counter;

struct RecoveryBed : test::ServiceBed {
  explicit RecoveryBed(std::size_t nodes)
      : ServiceBed(os::Machine::breadboard(nodes),
                   {{"sleep", 16'384}, {"mpi_sleep", 1'500'000}}) {}
};

/// Options for recovery drills: redialing pilots, quick staging.
StandaloneOptions recover_options() {
  StandaloneOptions o = RecoveryBed::fast_options();
  o.worker.stage_files = {pmi::kProxyBinary, "sleep", "mpi_sleep"};
  o.worker.reconnect_backoff = sim::milliseconds(500);
  o.worker.reconnect_attempts = 20;
  return o;
}

std::uint64_t fold_digests(const Service& svc, const std::vector<JobId>& ids) {
  std::uint64_t h = 1469598103934665603ull;
  for (JobId id : ids) {
    h = (h ^ record_digest(svc.record(id))) * 1099511628211ull;
  }
  return h;
}

/// Polls the service until all `n` jobs settle (wait_all() waiters die with
/// a crashed service, so recovery drills must poll — see standalone.hh).
sim::Task<void> settle_poller(StandaloneJets* jets, std::size_t n) {
  for (;;) {
    co_await sim::delay(sim::milliseconds(200));
    if (!jets->service_up()) continue;
    const Service& s = jets->service();
    if (service_counter(s, "jobs.completed") +
            service_counter(s, "jobs.failed") >=
        n) {
      co_return;
    }
  }
}

// --- The codec ---------------------------------------------------------------

/// A snapshot exercising every section and every field at least once.
Snapshot sample_snapshot() {
  Snapshot s;
  s.taken_at = sim::seconds(42);
  s.addr = net::Address{3, 9'000};
  s.next_worker_seq = 17;
  s.next_task = 1'234;
  s.peak_capacity = 8;
  // A genuine mt19937_64 stream state: restore feeds it back through the
  // engine's >> operator, which rejects malformed text.
  std::ostringstream rng_os;
  rng_os << std::mt19937_64(7);
  s.rng_state = rng_os.str();
  s.counters = {{"jets.service.jobs.completed", 5},
                {"jets.service.jobs.failed", 1}};

  JobSnap j;
  j.rec.id = 1;
  j.rec.spec.kind = JobKind::kMpi;
  j.rec.spec.nprocs = 4;
  j.rec.spec.ppn = 2;
  j.rec.spec.argv = {"mpi_sleep", "3"};
  j.rec.spec.vars = {{"K", "V"}, {"X", ""}};
  j.rec.spec.timeout = sim::seconds(30);
  j.rec.spec.priority = -2;
  RetryPolicy pol;
  pol.max_attempts = 7;
  pol.backoff_base = sim::milliseconds(250);
  pol.backoff_jitter = 0.25;
  j.rec.spec.retry = pol;
  j.rec.status = JobStatus::kRunning;
  j.rec.attempts = 2;
  j.rec.infra_failures = 1;
  j.rec.last_reason = FailureReason::kWorkerLost;
  AttemptRecord a;
  a.attempt = 1;
  a.started_at = sim::seconds(10);
  a.ended_at = sim::seconds(12);
  a.exit_status = 137;
  a.reason = FailureReason::kServiceRestart;
  a.backoff = sim::milliseconds(500);
  j.rec.history = {a};
  j.rec.nodes = {0, 3};
  j.rec.submitted_at = sim::seconds(1);
  j.rec.started_at = sim::seconds(40);
  j.task_id = "t42";
  j.assigned_seq = {4, 9};
  s.jobs = {j};

  // Job 2 waits out a retry backoff (not queued); job 3 sits in the queue.
  JobSnap q;
  q.rec.id = 2;
  q.rec.spec.argv = {"sleep", "1"};
  q.in_backoff = true;
  q.retry_at = sim::seconds(50);
  s.jobs.push_back(q);
  JobSnap p;
  p.rec.id = 3;
  p.rec.spec.argv = {"sleep", "2"};
  s.jobs.push_back(p);
  s.queue_order = {3};

  WorkerSnap w;
  w.seq = 4;
  w.node = 0;
  w.connected = true;
  w.busy = true;
  w.job = 1;
  w.task_id = "t42";
  w.last_heard = sim::seconds(41);
  s.workers = {w};
  WorkerSnap idle;
  idle.seq = 9;
  idle.node = 3;
  idle.connected = true;
  idle.ready = true;
  idle.ready_rank = 1;
  s.workers.push_back(idle);

  s.node_health = {{2, 3, true, sim::seconds(90)}};

  obs::Span span;
  span.id = 1;
  span.name = "job.queued";
  span.begin = sim::seconds(1);
  span.end = sim::seconds(2);
  span.attrs = {{"job", "1"}};
  s.journal = {span};
  return s;
}

TEST(SnapshotCodec, RoundTripsEveryField) {
  const Snapshot s = sample_snapshot();
  const std::vector<std::uint8_t> bytes = s.serialize();
  const Snapshot back = Snapshot::parse(bytes);
  EXPECT_EQ(s, back);
  // Serialization itself is deterministic.
  EXPECT_EQ(bytes, back.serialize());
}

TEST(SnapshotCodec, RejectsCorruptInput) {
  const std::vector<std::uint8_t> bytes = sample_snapshot().serialize();

  EXPECT_THROW(Snapshot::parse({}), SnapshotError);

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(Snapshot::parse(bad_magic), SnapshotError);

  std::vector<std::uint8_t> bad_version = bytes;
  bad_version[4] = 0xEE;
  EXPECT_THROW(Snapshot::parse(bad_version), SnapshotError);

  // Truncation anywhere in the stream must throw, never read out of
  // bounds (asan backs this up in the sanitizer lane).
  for (std::size_t cut : {bytes.size() / 4, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::vector<std::uint8_t> trunc(bytes.begin(), bytes.begin() + cut);
    EXPECT_THROW(Snapshot::parse(trunc), SnapshotError) << "cut=" << cut;
  }
}

TEST(SnapshotCodec, RejectsBadEnums) {
  Snapshot s = sample_snapshot();
  s.jobs[0].rec.last_reason = static_cast<FailureReason>(200);
  EXPECT_THROW(Snapshot::parse(s.serialize()), SnapshotError);

  Snapshot s2 = sample_snapshot();
  s2.jobs[0].rec.status = static_cast<JobStatus>(99);
  EXPECT_THROW(Snapshot::parse(s2.serialize()), SnapshotError);
}

// --- Checkpoint purity and replay determinism --------------------------------

struct DigestRun {
  std::uint64_t digest = 0;
  std::vector<std::vector<std::uint8_t>> snaps;
  std::size_t completed = 0;
};

/// One 12-job mixed batch on 4 nodes; optionally checkpoints at 2s and 4s.
DigestRun run_batch_with_checkpoints(bool checkpoint) {
  constexpr std::size_t kNodes = 4;
  RecoveryBed bed(kNodes);
  StandaloneJets jets(bed.machine, bed.apps, recover_options());
  RecoveryBed::enlist(jets, kNodes);

  std::vector<JobSpec> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back(seq_job({"sleep", "1"}));
  jobs.push_back(mpi_job(2, {"mpi_sleep", "1"}));
  jobs.push_back(mpi_job(4, {"mpi_sleep", "1"}));

  DigestRun out;
  if (checkpoint) {
    bed.engine.spawn("checkpointer",
                     [](StandaloneJets& jets, DigestRun& out) -> sim::Task<void> {
                       for (int k = 0; k < 2; ++k) {
                         co_await sim::delay(sim::seconds(2));
                         out.snaps.push_back(jets.checkpoint().serialize());
                       }
                     }(jets, out));
  }
  const BatchReport report = bed.run(jets, std::move(jobs));
  out.completed = report.completed;

  std::vector<JobId> ids(report.records.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = report.records[i].id;
  out.digest = fold_digests(jets.service(), ids);
  return out;
}

TEST(Recovery, CheckpointIsObservationOnly) {
  const DigestRun plain = run_batch_with_checkpoints(false);
  const DigestRun observed = run_batch_with_checkpoints(true);
  EXPECT_EQ(plain.completed, 12u);
  EXPECT_EQ(observed.completed, 12u);
  // Taking checkpoints must not change the schedule.
  EXPECT_EQ(plain.digest, observed.digest);
}

TEST(Recovery, ReplayCheckpointsAreByteIdentical) {
  const DigestRun a = run_batch_with_checkpoints(true);
  const DigestRun b = run_batch_with_checkpoints(true);
  ASSERT_EQ(a.snaps.size(), b.snaps.size());
  for (std::size_t i = 0; i < a.snaps.size(); ++i) {
    EXPECT_EQ(a.snaps[i], b.snaps[i]) << "checkpoint " << i;
  }
  EXPECT_EQ(a.digest, b.digest);
}

// --- Restore fidelity --------------------------------------------------------

TEST(Recovery, RestoreRoundTripPreservesSchedulerState) {
  constexpr std::size_t kNodes = 4;
  RecoveryBed bed(kNodes);
  StandaloneJets jets(bed.machine, bed.apps, recover_options());
  RecoveryBed::enlist(jets, kNodes);

  // Sequential-only so every in-flight job is rescue-eligible and no
  // kServiceRestart attempt mutates the records between the checkpoints.
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 8; ++i) jobs.push_back(seq_job({"sleep", "2"}));

  Snapshot before, after;
  bed.engine.spawn("driver",
                   [](StandaloneJets& jets, std::vector<JobSpec> jobs,
                      Snapshot& before, Snapshot& after) -> sim::Task<void> {
                     co_await jets.wait_workers();
                     jets.service().submit_batch(jobs);
                     co_await sim::delay(sim::seconds(1));
                     before = jets.checkpoint();
                     jets.crash_service();
                     jets.restore_service(before);
                     after = jets.checkpoint();
                   }(jets, std::move(jobs), before, after));
  bed.engine.spawn("poller", settle_poller(&jets, 8));
  bed.engine.run_until(sim::seconds(120));
  ASSERT_LT(bed.engine.now(), sim::seconds(120)) << "batch did not settle";

  // The scheduler's job-facing state survives the round trip verbatim.
  EXPECT_EQ(before.taken_at, after.taken_at);
  EXPECT_EQ(before.addr, after.addr);
  EXPECT_EQ(before.next_worker_seq, after.next_worker_seq);
  EXPECT_EQ(before.next_task, after.next_task);
  EXPECT_EQ(before.rng_state, after.rng_state);
  EXPECT_EQ(before.jobs, after.jobs);
  EXPECT_EQ(before.queue_order, after.queue_order);
  EXPECT_EQ(before.node_health, after.node_health);
  // Workers come back as ghosts: same identity, not yet connected.
  ASSERT_EQ(before.workers.size(), after.workers.size());
  for (std::size_t i = 0; i < before.workers.size(); ++i) {
    EXPECT_EQ(before.workers[i].seq, after.workers[i].seq);
    EXPECT_EQ(before.workers[i].node, after.workers[i].node);
    EXPECT_EQ(before.workers[i].busy, after.workers[i].busy);
    EXPECT_EQ(before.workers[i].job, after.workers[i].job);
    EXPECT_EQ(before.workers[i].task_id, after.workers[i].task_id);
    EXPECT_FALSE(after.workers[i].connected);
  }

  // And the drill still finishes all work.
  const Service& svc = jets.service();
  EXPECT_EQ(service_counter(svc, "jobs.completed"), 8u);
  EXPECT_EQ(service_counter(svc, "jobs.failed"), 0u);
  EXPECT_EQ(service_counter(svc, "restore.count"), 1u);
  EXPECT_EQ(service_counter(svc, "restore.workers_reconciled"), kNodes);
  EXPECT_EQ(service_counter(svc, "restore.ghosts_dropped"), 0u);
  EXPECT_EQ(svc.awaiting_workers(), 0u);
}

TEST(Recovery, SeqJobsInFlightAreRescuedAcrossCrash) {
  constexpr std::size_t kNodes = 4;
  RecoveryBed bed(kNodes);
  StandaloneJets jets(bed.machine, bed.apps, recover_options());
  RecoveryBed::enlist(jets, kNodes);

  std::vector<JobSpec> jobs;
  for (int i = 0; i < 4; ++i) jobs.push_back(seq_job({"sleep", "10"}));

  bed.engine.spawn("driver",
                   [](StandaloneJets& jets,
                      std::vector<JobSpec> jobs) -> sim::Task<void> {
                     co_await jets.wait_workers();
                     jets.service().submit_batch(jobs);
                     // Crash mid-flight; the outage is shorter than the
                     // tasks, so every pilot still holds its task when the
                     // restored service comes back.
                     co_await sim::delay(sim::seconds(3));
                     Snapshot snap = jets.checkpoint();
                     jets.crash_service();
                     co_await sim::delay(sim::seconds(2));
                     jets.restore_service(snap);
                   }(jets, std::move(jobs)));
  bed.engine.spawn("poller", settle_poller(&jets, 4));
  bed.engine.run_until(sim::seconds(120));
  ASSERT_LT(bed.engine.now(), sim::seconds(120)) << "batch did not settle";

  const Service& svc = jets.service();
  EXPECT_EQ(service_counter(svc, "jobs.completed"), 4u);
  EXPECT_EQ(service_counter(svc, "jobs.failed"), 0u);
  // All four in-flight jobs were adopted back and ran to completion on
  // their original pilots — no re-execution, no restart attempts.
  EXPECT_EQ(service_counter(svc, "restore.jobs_rescued"), 4u);
  EXPECT_EQ(service_counter(svc, "failures.service-restart"), 0u);
  EXPECT_EQ(service_counter(svc, "restore.workers_reconciled"), kNodes);
  for (JobId id = 1; id <= 4; ++id) {
    EXPECT_EQ(svc.record(id).attempts, 1) << "job " << id;
  }
}

TEST(Recovery, ServiceRestartChargesNoRetryBudget) {
  constexpr std::size_t kNodes = 4;
  RecoveryBed bed(kNodes);
  StandaloneOptions options = recover_options();
  // One attempt only: any *charged* failure is terminal, so completion
  // proves the kServiceRestart attempts were exempt from the budget.
  options.service.retry.max_attempts = 1;
  StandaloneJets jets(bed.machine, bed.apps, options);
  RecoveryBed::enlist(jets, kNodes);

  // MPI gangs cannot be adopted across a restart (their PMI fabric died
  // with the service), so each in-flight gang is requeued blamelessly.
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 6; ++i) jobs.push_back(mpi_job(2, {"mpi_sleep", "5"}));

  bed.engine.spawn("driver",
                   [](StandaloneJets& jets,
                      std::vector<JobSpec> jobs) -> sim::Task<void> {
                     co_await jets.wait_workers();
                     jets.service().submit_batch(jobs);
                     co_await sim::delay(sim::seconds(2));
                     Snapshot snap = jets.checkpoint();
                     jets.crash_service();
                     co_await sim::delay(sim::seconds(1));
                     jets.restore_service(snap);
                   }(jets, std::move(jobs)));
  bed.engine.spawn("poller", settle_poller(&jets, 6));
  bed.engine.run_until(sim::seconds(300));
  ASSERT_LT(bed.engine.now(), sim::seconds(300)) << "batch did not settle";

  const Service& svc = jets.service();
  EXPECT_EQ(service_counter(svc, "jobs.completed"), 6u);
  EXPECT_EQ(service_counter(svc, "jobs.failed"), 0u);
  // The restart really did interrupt gangs — and charged nobody.
  EXPECT_GT(service_counter(svc, "failures.service-restart"), 0u);
  for (JobId id = 1; id <= 6; ++id) {
    const JobRecord& rec = svc.record(id);
    EXPECT_EQ(rec.status, JobStatus::kDone) << "job " << id;
    EXPECT_EQ(rec.app_failures, 0) << "job " << id;
    EXPECT_EQ(rec.infra_failures, 0) << "job " << id;
  }
}

TEST(Recovery, GhostsDroppedWhenPilotsNeverRedial) {
  constexpr std::size_t kNodes = 3;
  RecoveryBed bed(kNodes);
  StandaloneOptions options = recover_options();
  options.worker.reconnect_backoff = 0;  // pre-recovery pilots: EOF = exit
  StandaloneJets jets(bed.machine, bed.apps, options);
  RecoveryBed::enlist(jets, kNodes);

  std::vector<JobSpec> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back(seq_job({"sleep", "30"}));

  bed.engine.spawn("driver",
                   [](StandaloneJets& jets,
                      std::vector<JobSpec> jobs) -> sim::Task<void> {
                     co_await jets.wait_workers();
                     jets.service().submit_batch(jobs);
                     co_await sim::delay(sim::seconds(2));
                     Snapshot snap = jets.checkpoint();
                     jets.crash_service();
                     jets.restore_service(snap);
                   }(jets, std::move(jobs)));
  bed.engine.run_until(sim::seconds(60));

  // Past restore_grace with nobody redialing: every ghost is reaped and
  // the rescued-in-place jobs fail over to the queue with a blameless
  // restart attempt on record. With the whole pool gone the queue is then
  // unsatisfiable, so fail_unsatisfiable (on by default) settles the
  // requeued jobs as kServiceAbort rather than wedging forever.
  const Service& svc = jets.service();
  EXPECT_EQ(service_counter(svc, "restore.count"), 1u);
  EXPECT_EQ(service_counter(svc, "restore.ghosts_dropped"), kNodes);
  EXPECT_EQ(svc.awaiting_workers(), 0u);
  EXPECT_EQ(service_counter(svc, "restore.workers_reconciled"), 0u);
  EXPECT_EQ(svc.connected_workers(), 0u);
  EXPECT_EQ(svc.pending_jobs(), 0u);
  EXPECT_EQ(service_counter(svc, "jobs.failed"), 3u);
  EXPECT_EQ(service_counter(svc, "failures.service-restart"), 3u);
  EXPECT_EQ(service_counter(svc, "failures.service-abort"), 3u);
}

TEST(Recovery, MidRunServiceDestructionDisarmsEverything) {
  // Timer-lifetime audit: tear the service down with retry backoffs, job
  // timeouts, liveness deadlines, and a reconcile timer all armed; the
  // engine must then run to quiescence without touching freed state (the
  // sanitizer lane turns any violation into a hard failure).
  constexpr std::size_t kNodes = 2;
  RecoveryBed bed(kNodes);
  StandaloneOptions options = recover_options();
  options.service.retry.max_attempts = 5;
  options.worker.heartbeat_interval = sim::milliseconds(500);
  options.service.worker_liveness_timeout = sim::seconds(2);
  StandaloneJets jets(bed.machine, bed.apps, options);
  RecoveryBed::enlist(jets, kNodes);

  std::vector<JobSpec> jobs;
  for (int i = 0; i < 4; ++i) {
    JobSpec s = seq_job({"sleep", "20"});
    s.timeout = sim::seconds(60);
    jobs.push_back(s);
  }

  bed.engine.spawn("driver",
                   [](StandaloneJets& jets,
                      std::vector<JobSpec> jobs) -> sim::Task<void> {
                     co_await jets.wait_workers();
                     jets.service().submit_batch(jobs);
                     co_await sim::delay(sim::seconds(1));
                     // Restore briefly (arms the reconcile timer), then
                     // kill the service for good while it is still armed.
                     Snapshot snap = jets.checkpoint();
                     jets.crash_service();
                     jets.restore_service(snap);
                     co_await sim::delay(sim::seconds(1));
                     jets.crash_service();
                   }(jets, std::move(jobs)));
  bed.engine.run_until(sim::seconds(90));
  EXPECT_FALSE(jets.service_up());
}

// --- Journal continuity ------------------------------------------------------

TEST(Recovery, JournalSeedsAFreshTracer) {
  const Snapshot s = sample_snapshot();
  // A restored service on a fresh machine imports the checkpointed spans.
  RecoveryBed fresh(4);
  obs::Tracer fresh_tracer(fresh.engine);
  fresh.machine.set_tracer(&fresh_tracer);
  ASSERT_TRUE(fresh_tracer.spans().empty());
  Service restored(fresh.machine, fresh.apps, fresh.machine.login_node(),
                   Service::Config{}, s);
  ASSERT_EQ(fresh_tracer.spans().size(), s.journal.size());
  EXPECT_EQ(fresh_tracer.spans()[0].name, "job.queued");

  // Same-machine restores (the simulated drills) must NOT duplicate a
  // journal the surviving tracer already holds.
  RecoveryBed bed(4);
  obs::Tracer survivor(bed.engine);
  bed.machine.set_tracer(&survivor);
  survivor.import_spans(s.journal);
  const std::size_t already = survivor.spans().size();
  Service again(bed.machine, bed.apps, bed.machine.login_node(),
                Service::Config{}, s);
  EXPECT_EQ(survivor.spans().size(), already);
}

// --- Chaos wiring ------------------------------------------------------------

TEST(Recovery, ChaosServiceCrashFaultDrivesTheDrill) {
  constexpr std::size_t kNodes = 4;
  RecoveryBed bed(kNodes);
  StandaloneJets jets(bed.machine, bed.apps, recover_options());
  RecoveryBed::enlist(jets, kNodes);

  std::vector<JobSpec> jobs;
  for (int i = 0; i < 16; ++i) jobs.push_back(seq_job({"sleep", "2"}));

  ChaosEngine chaos(bed.machine, sim::Rng(11));
  Fault f;
  f.at = sim::seconds(4);
  f.kind = FaultKind::kServiceCrash;
  f.duration = sim::seconds(2);
  chaos.add(f);
  std::vector<std::uint8_t> latest;
  chaos.set_service_crash(
      [&] {
        latest = jets.checkpoint().serialize();
        jets.crash_service();
      },
      [&] { jets.restore_service(Snapshot::parse(latest)); });

  bed.engine.spawn("driver",
                   [](StandaloneJets& jets, ChaosEngine& chaos,
                      std::vector<JobSpec> jobs) -> sim::Task<void> {
                     co_await jets.wait_workers();
                     chaos.start();
                     jets.service().submit_batch(jobs);
                   }(jets, chaos, std::move(jobs)));
  bed.engine.spawn("poller", settle_poller(&jets, 16));
  bed.engine.run_until(sim::seconds(300));
  ASSERT_LT(bed.engine.now(), sim::seconds(300)) << "batch did not settle";

  EXPECT_EQ(chaos.counters().services_crashed, 1u);
  EXPECT_EQ(chaos.counters().services_restored, 1u);
  const Service& svc = jets.service();
  EXPECT_EQ(service_counter(svc, "jobs.completed"), 16u);
  EXPECT_EQ(service_counter(svc, "jobs.failed"), 0u);
  EXPECT_EQ(service_counter(svc, "restore.count"), 1u);
}

TEST(Recovery, AttachMetricsIsIdempotent) {
  RecoveryBed bed(2);
  ChaosEngine chaos(bed.machine, sim::Rng(3));
  obs::MetricsRegistry reg_a;
  chaos.attach_metrics(reg_a);
  const std::size_t counters_after_first = reg_a.instrument_count();
  // Re-attaching the same registry is a no-op, not a re-registration.
  chaos.attach_metrics(reg_a);
  chaos.attach_metrics(reg_a);
  EXPECT_EQ(reg_a.instrument_count(), counters_after_first);

  // Switching to a fresh registry (a restored service re-binding its
  // metrics) seeds it with the counts accumulated so far.
  Fault f;
  f.kind = FaultKind::kServiceCrash;
  f.at = sim::seconds(1);
  chaos.add(f);
  bool crashed = false;
  chaos.set_service_crash([&] { crashed = true; }, [] {});
  bed.engine.spawn("chaos", [](ChaosEngine& c) -> sim::Task<void> {
    c.start();
    co_return;
  }(chaos));
  bed.engine.run();
  ASSERT_TRUE(crashed);
  EXPECT_EQ(reg_a.counter("jets.chaos.services_crashed").value, 1u);

  obs::MetricsRegistry reg_b;
  chaos.attach_metrics(reg_b);
  EXPECT_EQ(reg_b.counter("jets.chaos.services_crashed").value, 1u);
}

// --- Property: random fault spectra survive a checkpointed crash -------------

TEST(Recovery, PropertyFaultSpectrumSurvivesCrashRestore) {
  for (std::uint64_t seed : {21ull, 22ull, 23ull, 24ull}) {
    constexpr std::size_t kNodes = 6;
    constexpr std::size_t kJobs = 24;
    RecoveryBed bed(kNodes);
    StandaloneOptions options = recover_options();
    options.service.retry.max_attempts = 10;
    options.worker.heartbeat_interval = sim::milliseconds(500);
    options.service.worker_liveness_timeout = sim::seconds(2);
    StandaloneJets jets(bed.machine, bed.apps, options);
    RecoveryBed::enlist(jets, kNodes);

    sim::Rng rng(seed);
    std::vector<JobSpec> jobs;
    for (std::size_t i = 0; i < kJobs; ++i) {
      jobs.push_back(rng.uniform_int(0, 3) == 0 ? mpi_job(2, {"mpi_sleep", "2"})
                                                : seq_job({"sleep", "2"}));
    }

    // A small random fault spectrum around the crash window.
    ChaosEngine chaos(bed.machine, rng.fork("faults"));
    chaos.set_pilots(jets.worker_pids());
    for (int i = 0; i < 2; ++i) {
      Fault f;
      f.at = sim::seconds(2 + 2 * i);
      f.kind = i == 0 ? FaultKind::kKillPilot : FaultKind::kSocketClose;
      chaos.add(f);
    }

    const sim::Time crash_at =
        sim::seconds(3) + sim::milliseconds(rng.uniform_int(0, 3000));
    bed.engine.spawn(
        "driver",
        [](StandaloneJets& jets, ChaosEngine& chaos,
           std::vector<JobSpec> jobs, sim::Time crash_at) -> sim::Task<void> {
          co_await jets.wait_workers();
          chaos.start();
          jets.service().submit_batch(jobs);
          co_await sim::delay(crash_at);
          Snapshot snap = jets.checkpoint();
          // The snapshot must survive its own wire format. (EXPECT, not
          // ASSERT: fatal-failure macros return void, which a coroutine
          // body cannot.)
          EXPECT_EQ(Snapshot::parse(snap.serialize()).serialize(),
                    snap.serialize());
          jets.crash_service();
          co_await sim::delay(sim::seconds(1));
          jets.restore_service(snap);
        }(jets, chaos, std::move(jobs), crash_at));
    bed.engine.spawn("poller", settle_poller(&jets, kJobs));
    bed.engine.run_until(sim::seconds(600));
    ASSERT_LT(bed.engine.now(), sim::seconds(600))
        << "seed " << seed << ": batch did not settle";

    const Service& svc = jets.service();
    EXPECT_EQ(service_counter(svc, "restore.count"), 1u) << "seed " << seed;
    EXPECT_EQ(service_counter(svc, "jobs.completed") +
                  service_counter(svc, "jobs.failed"),
              kJobs)
        << "seed " << seed;
    // No job may be over-charged: restart attempts count toward neither
    // budget, so attempts > charged failures whenever a restart intervened.
    for (JobId id = 1; id <= kJobs; ++id) {
      const JobRecord& rec = svc.record(id);
      int restarts = 0;
      for (const AttemptRecord& a : rec.history) {
        if (a.reason == FailureReason::kServiceRestart) ++restarts;
      }
      EXPECT_LE(rec.app_failures + rec.infra_failures + restarts,
                rec.attempts)
          << "seed " << seed << " job " << id;
    }
  }
}

}  // namespace
}  // namespace jets::core
