// Scenario — service crash and recovery by checkpoint/restore
// (core/snapshot.hh, DESIGN.md §10). Not a paper figure: the goldens cover
// the paper only.
//
// 32 Surveyor workers run 3,000 sequential tasks in three passes: an
// uninterrupted baseline taking periodic checkpoints, an identical replay
// (asserting byte-identical checkpoints and an identical final record
// digest — the determinism claim), and a crash pass that kills the service
// at 63 s and restores it from the 60 s checkpoint, reporting MTTR and
// jobs rescued vs jobs lost. scripts/check.sh greps the three *_match=yes
// flags. Seeded end to end: two runs print byte-identical output.
#include <cstdio>
#include <cstdint>
#include <vector>

#include "core/chaos.hh"
#include "core/snapshot.hh"
#include "harness.hh"

using namespace jets;

namespace {

struct RecoverRun {
  std::vector<std::vector<std::uint8_t>> snaps;  // at 15, 30, 45, 60 s
  std::uint64_t digest = 0;                      // folded record digests
  std::vector<core::JobRecord> records;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t restores = 0;
  std::size_t reconciled = 0;
  std::size_t rescued = 0;
  std::size_t restarts = 0;
  std::size_t ghosts_dropped = 0;
  double mttr_s = -1.0;
  double makespan_s = 0.0;
  bool all_settled = false;
};

std::uint64_t fold_digest(std::uint64_t h, std::uint64_t d) {
  return (h ^ d) * 1099511628211ull;  // FNV-style fold, order-sensitive
}

/// Jobs settled so far: completed, failed or quarantined.
std::size_t settled_jobs(const core::Service& svc) {
  return bench::service_counter(svc, "jobs.completed") +
         bench::service_counter(svc, "jobs.failed") +
         bench::service_counter(svc, "jobs.quarantined");
}

RecoverRun run_recover_pass(bool crash) {
  constexpr std::size_t kNodes = 32;
  constexpr std::size_t kJobs = 3'000;
  const sim::Time crash_at = sim::seconds(63);
  bench::Bed bed(os::Machine::surveyor(kNodes));
  auto options = bench::surveyor_options(/*workers_per_node=*/1);
  options.worker.stage_files = {"sleep"};
  // Pilots survive the outage: they redial with linear backoff and
  // re-register carrying their outstanding-task inventory.
  options.worker.reconnect_backoff = sim::milliseconds(500);
  options.worker.reconnect_attempts = 20;
  options.service.retry.max_attempts = 100;
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(bed.nodes(kNodes));

  RecoverRun out;
  core::ChaosEngine chaos(bed.machine, sim::Rng(2011).fork("recover"));
  if (crash) {
    chaos.set_service_crash(
        [&] { jets.crash_service(); },
        // Restore from the *last periodic checkpoint* (60 s), not a
        // crash-instant snapshot: the 3 s of progress in between is what
        // reconciliation must win back (or requeue blamelessly).
        [&] { jets.restore_service(core::Snapshot::parse(out.snaps.back())); });
    core::Fault f;
    f.at = crash_at;
    f.kind = core::FaultKind::kServiceCrash;
    f.duration = sim::seconds(3);
    chaos.add(f);
  }

  // Mostly 1 s tasks plus a 9 s stripe: the long tasks outlive the crash
  // outage + redial, so the crash pass exercises in-place rescue (a pilot
  // returning mid-task) next to the lost-done/requeue path.
  std::vector<core::JobSpec> jobs(kJobs, bench::seq_job({"sleep", "1"}));
  for (std::size_t i = 0; i < kJobs; i += 6) {
    jobs[i] = bench::seq_job({"sleep", "9"});
  }
  bed.engine.spawn("driver", [](core::StandaloneJets& jets,
                                std::vector<core::JobSpec> jobs,
                                core::ChaosEngine& chaos) -> sim::Task<void> {
    co_await jets.wait_workers();
    jets.service().submit_batch(jobs);
    chaos.start();
  }(jets, std::move(jobs), chaos));

  // Checkpoint cadence: every 15 s up to 60 s. Identical in all passes, so
  // the baseline/replay byte-compare covers the codec end to end.
  bed.engine.spawn("checkpointer", [](core::StandaloneJets& jets,
                                      RecoverRun& out) -> sim::Task<void> {
    for (int k = 0; k < 4; ++k) {
      co_await sim::delay(sim::seconds(15));
      if (!jets.service_up()) co_return;
      out.snaps.push_back(jets.checkpoint().serialize());
    }
  }(jets, out));

  for (int t = 1; t <= 400; ++t) {
    bed.engine.run_until(sim::seconds(t));
    if (!jets.service_up()) continue;  // mid-outage sample
    if (crash && out.mttr_s < 0 && sim::seconds(t) > crash_at &&
        jets.service().connected_workers() == kNodes) {
      out.mttr_s = sim::to_seconds(sim::seconds(t) - crash_at);
    }
    if (settled_jobs(jets.service()) >= kJobs) break;
  }

  out.makespan_s = sim::to_seconds(bed.engine.now());
  if (jets.service_up()) {
    const core::Service& svc = jets.service();
    out.completed = bench::service_counter(svc, "jobs.completed");
    out.failed = bench::service_counter(svc, "jobs.failed") +
                 bench::service_counter(svc, "jobs.quarantined");
    out.restores = bench::service_counter(svc, "restore.count");
    out.reconciled = bench::service_counter(svc, "restore.workers_reconciled");
    out.rescued = bench::service_counter(svc, "restore.jobs_rescued");
    out.restarts = bench::service_counter(svc, "failures.service-restart");
    out.ghosts_dropped = bench::service_counter(svc, "restore.ghosts_dropped");
    out.all_settled = out.completed + out.failed >= kJobs;
    out.records = svc.records();
    for (const core::JobRecord& rec : out.records) {
      out.digest = fold_digest(out.digest, core::record_digest(rec));
    }
  }
  return out;
}

}  // namespace

int main() {
  const RecoverRun base = run_recover_pass(/*crash=*/false);
  const RecoverRun replay = run_recover_pass(/*crash=*/false);
  const RecoverRun crash = run_recover_pass(/*crash=*/true);

  std::printf("# scenario: recover\n");
  std::printf("# recover pass=baseline completed=%zu failed=%zu "
              "checkpoints=%zu makespan_s=%.1f digest=%016llx\n",
              base.completed, base.failed, base.snaps.size(), base.makespan_s,
              static_cast<unsigned long long>(base.digest));
  // Determinism: an identical same-seed run must reproduce the final
  // digest *and* every periodic checkpoint byte for byte (checkpointing is
  // pure, so it cannot perturb the run it observes).
  const bool digest_match =
      base.digest == replay.digest && base.all_settled && replay.all_settled;
  const bool snapshot_match = base.snaps == replay.snaps;
  std::printf("# recover pass=replay digest_match=%s snapshot_match=%s\n",
              digest_match ? "yes" : "NO", snapshot_match ? "yes" : "NO");
  // Restore fidelity: every job already settled in the 60 s checkpoint must
  // come out of the crash run with its record preserved verbatim.
  bool preserved_match = crash.all_settled && !crash.snaps.empty();
  if (preserved_match) {
    const core::Snapshot snap = core::Snapshot::parse(crash.snaps.back());
    std::size_t settled_before = 0;
    for (const core::JobSnap& js : snap.jobs) {
      if (!core::job_settled(js.rec.status)) continue;
      ++settled_before;
      if (js.rec.id > crash.records.size() ||
          !(crash.records[js.rec.id - 1] == js.rec)) {
        preserved_match = false;
        break;
      }
    }
    if (settled_before == 0) preserved_match = false;  // crash ran too early
  }
  std::printf(
      "# recover pass=crash completed=%zu failed=%zu restores=%zu "
      "reconciled=%zu rescued=%zu restarts=%zu ghosts_dropped=%zu "
      "preserved_match=%s mttr_s=%.1f makespan_s=%.1f\n",
      crash.completed, crash.failed, crash.restores, crash.reconciled,
      crash.rescued, crash.restarts, crash.ghosts_dropped,
      preserved_match ? "yes" : "NO", crash.mttr_s, crash.makespan_s);
  return 0;
}
