// Scenario — per-job input staging through the content-addressed store
// (DESIGN.md §11). Not a paper figure: the goldens cover the paper only.
//
// Three series, each '# staging '-prefixed:
//
//   1. the fig06 no-op launch sweep with every task naming a shared input
//      blob in stage_files — the launch rate riding the warm CAS cache;
//   2. the fig13 NAMD batch with each REM case's input blob staged per
//      job — warm-hit rate and bytes actually pushed;
//   3. the abl_staging cold-vs-warm ensemble: the same MPI jobs with the
//      cache off (every job re-pushes every input) and on, and the
//      resulting dedup factor (scripts/check.sh gates it at >= 10x).
//
// Seeded end to end: two runs print byte-identical output.
#include <cstdio>

#include "namd_batch.hh"

using namespace jets;

namespace {

/// Warm hits over (node, blob) requests; 0 when nothing was requested.
double warm_rate(const core::Service& svc) {
  const std::size_t requests = bench::service_counter(svc, "staging.requests");
  return requests > 0
             ? static_cast<double>(
                   bench::service_counter(svc, "staging.warm_hits")) /
                   static_cast<double>(requests)
             : 0.0;
}

double pushed_mb(const core::Service& svc) {
  return static_cast<double>(
             bench::service_counter(svc, "staging.bytes_pushed")) /
         1e6;
}

/// Series 1: the fig06 no-op sweep with per-job input staging.
void launch_rate_series() {
  std::printf("# staging launch rate with per-job input staging (CAS warm cache)\n");
  for (std::size_t nodes : {32u, 128u, 512u}) {
    bench::Bed bed(os::Machine::surveyor(nodes));
    bed.machine.shared_fs().put("seq_input", 4'000'000);
    auto options = bench::surveyor_options(/*workers_per_node=*/4);
    options.worker.stage_files = {pmi::kProxyBinary, "noop"};
    core::StandaloneJets jets(bed.machine, bed.apps, options);
    jets.start(bed.nodes(nodes));
    core::JobSpec spec = bench::seq_job({"noop"});
    spec.stage_files = {"seq_input"};
    std::vector<core::JobSpec> jobs(jets.total_slots() * 5, spec);
    core::BatchReport report;
    bed.run([&]() -> sim::Task<void> {
      co_await jets.wait_workers();
      report = co_await jets.run_batch(jobs);
    });
    std::printf("# staging nodes=%zu cores=%zu jobs_per_s=%.0f warm_rate=%.3f "
                "pushed_mb=%.1f\n",
                nodes, nodes * 4,
                static_cast<double>(report.completed) /
                    report.makespan_seconds(),
                warm_rate(jets.service()), pushed_mb(jets.service()));
  }
}

/// Series 2: the fig13 NAMD batch with per-job input staging.
void namd_series() {
  std::printf("# staging NAMD batch with per-job input staging (32 REM cases)\n");
  for (std::size_t nodes : {256u, 1024u}) {
    const auto r = bench::run_namd_batch(nodes, /*nproc=*/4,
                                         /*stage_inputs=*/true);
    const double rate =
        r.stage_requests > 0 ? static_cast<double>(r.stage_warm_hits) /
                                   static_cast<double>(r.stage_requests)
                             : 0.0;
    std::printf("# staging nodes=%zu jobs=%zu makespan_s=%.0f "
                "utilization=%.3f warm_rate=%.3f pushed_mb=%.1f\n",
                nodes, static_cast<std::size_t>(r.report.completed),
                r.report.makespan_seconds(), r.report.utilization(), rate,
                static_cast<double>(r.stage_bytes_pushed) / 1e6);
  }
}

/// Input-staging counters from one ensemble run.
struct StagingPoint {
  double pushed_mb = 0;   // bytes that crossed service->node
  double warm_rate = 0;   // warm hits / (node, blob) requests
  double makespan = 0;
};

/// An ensemble of short width-4 MPI jobs that all read the same two input
/// blobs — the many-parallel-task shape where per-job staging either
/// re-pushes every input for every job (cold baseline, staging_cache off)
/// or stages each distinct blob to a node once and rides warm cache.
StagingPoint run_ensemble(std::size_t alloc_nodes, bool cache) {
  bench::Bed bed(os::Machine::surveyor(alloc_nodes));
  bed.machine.shared_fs().put("ens_input_a", 8'000'000);
  bed.machine.shared_fs().put("ens_input_b", 2'000'000);
  auto options = bench::surveyor_options(/*workers_per_node=*/1);
  options.service.staging_cache = cache;
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(bed.nodes(alloc_nodes));
  core::JobSpec spec =
      bench::mpi_job(4, {"namd_segment", "10", "0.3", "short"});
  spec.stage_files = {"ens_input_a", "ens_input_b"};
  // 16 waves over the allocation: every job wants both blobs on each of
  // its 4 nodes, so the naive baseline moves 16x the bytes the cache does.
  std::vector<core::JobSpec> jobs(16 * (alloc_nodes / 4), spec);
  StagingPoint p;
  bed.run([&]() -> sim::Task<void> {
    co_await jets.wait_workers();
    const core::BatchReport report = co_await jets.run_batch(jobs);
    p.makespan = report.makespan_seconds();
  });
  p.pushed_mb = pushed_mb(jets.service());
  p.warm_rate = warm_rate(jets.service());
  return p;
}

/// Series 3: the abl_staging cold-vs-warm sweep. The header names the
/// environment variable that used to gate it, so the rows stay comparable
/// with earlier runs.
void cold_vs_warm_sweep() {
  std::printf("# staging cold-vs-warm input staging (CAS dedup; JETS_STAGING)\n");
  std::printf("# staging %-8s %-10s %-10s %-10s %-10s %-10s %s\n", "nodes",
              "cold_mb", "warm_mb", "warm_rate", "cold_mksp", "warm_mksp",
              "dedup_x");
  for (std::size_t nodes : {64u, 128u, 256u}) {
    const StagingPoint cold = run_ensemble(nodes, false);
    const StagingPoint warm = run_ensemble(nodes, true);
    std::printf("# staging %-8zu %-10.1f %-10.1f %-10.3f %-10.1f %-10.1f %.1f\n",
                nodes, cold.pushed_mb, warm.pushed_mb, warm.warm_rate,
                cold.makespan, warm.makespan,
                warm.pushed_mb > 0 ? cold.pushed_mb / warm.pushed_mb : 0.0);
  }
}

}  // namespace

int main() {
  launch_rate_series();
  namd_series();
  cold_vs_warm_sweep();
  return 0;
}
