// Ablation — node-local staging of binaries (§5 feature 2, §6.1.4).
//
// The same NAMD-like MPI batch run twice on Surveyor: once with the Hydra
// proxy + application image staged to the ZeptoOS ramdisk by the worker
// start-up script, once loading everything from GPFS on every exec. The
// paper claims staging "boosts startup performance and thus utilization
// for ensembles of short jobs"; the effect grows with allocation size as
// concurrent GPFS image reads contend.
//
// The per-job input-staging ablation (CAS dedup + warm cache vs naive
// re-push) runs in bench/scn_staging.
#include <cstdio>

#include "harness.hh"

using namespace jets;

namespace {

core::BatchReport run(std::size_t alloc_nodes, bool staged) {
  bench::Bed bed(os::Machine::surveyor(alloc_nodes));
  auto options = bench::surveyor_options(/*workers_per_node=*/1);
  options.worker.stage_files =
      staged ? std::vector<std::string>{pmi::kProxyBinary, "namd_segment"}
             : std::vector<std::string>{};
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(bed.nodes(alloc_nodes));
  // Short segments make startup overhead visible.
  std::vector<core::JobSpec> jobs(
      alloc_nodes, bench::mpi_job(4, {"namd_segment", "10", "0.3", "short"}));
  core::BatchReport report;
  bed.run([&]() -> sim::Task<void> {
    co_await jets.wait_workers();
    report = co_await jets.run_batch(jobs);
  });
  return report;
}

}  // namespace

int main() {
  bench::figure_header("abl_staging",
                       "binary staging to node-local storage vs GPFS loads",
                       "staging boosts startup performance; gap widens with "
                       "allocation size (§6.1.4)");
  std::printf("%-8s %-14s %-14s %s\n", "nodes", "gpfs_makespan",
              "staged_makespan", "speedup");
  for (std::size_t nodes : {64u, 128u, 256u}) {
    const double unstaged = run(nodes, false).makespan_seconds();
    const double staged = run(nodes, true).makespan_seconds();
    std::printf("%-8zu %-14.1f %-14.1f %.2fx\n", nodes, unstaged, staged,
                unstaged / staged);
  }
  return 0;
}
