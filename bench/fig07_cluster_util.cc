// Fig 7 — MPI task launch utilization, cluster setting (§6.1.2).
//
// Breadboard x86 cluster; the app performs barrier / 1 s wait / barrier.
// JETS runs 4-proc and 8-proc jobs (one process per node) against the
// "shell script" baseline, which repeatedly invokes mpiexec over the whole
// allocation with ssh bootstrap. Paper: JETS ~90 % utilization for these
// single-second tasks, vastly above the shell-script mode.
#include <cstdio>

#include "harness.hh"
#include "pmi/hydra.hh"

using namespace jets;

namespace {

constexpr int kJobsPerWave = 20;  // waves of work per measurement point

double jets_utilization(std::size_t alloc_nodes, int nproc) {
  bench::Bed bed(os::Machine::breadboard(alloc_nodes));
  auto options = bench::x86_options(/*workers_per_node=*/1);
  options.worker.stage_files = {pmi::kProxyBinary, "mpi_sleep"};
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(bed.nodes(alloc_nodes));
  const std::size_t njobs =
      alloc_nodes / static_cast<std::size_t>(nproc) * kJobsPerWave;
  std::vector<core::JobSpec> jobs(njobs,
                                  bench::mpi_job(nproc, {"mpi_sleep", "1"}));
  core::BatchReport report;
  bed.run([&]() -> sim::Task<void> {
    co_await jets.wait_workers();
    report = co_await jets.run_batch(jobs);
  });
  // Eq. (1) with the *configured* 1 s task duration: overheads (startup,
  // barriers, dispatch) count against utilization.
  return 1.0 * static_cast<double>(report.completed) * nproc /
         (static_cast<double>(alloc_nodes) * report.makespan_seconds());
}

/// Baseline: a shell script that calls `mpiexec -n <alloc>` repeatedly —
/// each invocation bootstraps its proxies over ssh, serially.
double shell_script_utilization(std::size_t alloc_nodes) {
  bench::Bed bed(os::Machine::breadboard(alloc_nodes));
  const int waves = kJobsPerWave;
  double busy_seconds = 0;
  bed.run([&]() -> sim::Task<void> {
    for (int w = 0; w < waves; ++w) {
      pmi::MpiexecSpec spec;
      spec.user_argv = {"mpi_sleep", "1"};
      spec.nprocs = static_cast<int>(alloc_nodes);
      pmi::Mpiexec mpx(bed.machine, bed.apps, bed.machine.login_node(), spec);
      mpx.start();
      mpx.launch_via_ssh(bed.nodes(alloc_nodes), bench::kSshCost);
      (void)co_await mpx.wait();
      busy_seconds += 1.0 * static_cast<double>(alloc_nodes);
    }
  });
  const double capacity =
      static_cast<double>(alloc_nodes) * sim::to_seconds(bed.engine.now());
  return busy_seconds / capacity;
}

}  // namespace

int main() {
  bench::figure_header(
      "fig07", "utilization vs allocation size, 1 s MPI tasks (Breadboard)",
      "JETS ~90 % for 4-proc/8-proc single-second tasks; mpiexec shell "
      "script far below and degrading with allocation size");
  std::printf("%-8s %-12s %-12s %s\n", "nodes", "jets_4proc", "jets_8proc",
              "shell_script");
  for (std::size_t nodes : {8u, 16u, 32u, 64u}) {
    std::printf("%-8zu %-12.3f %-12.3f %.3f\n", nodes,
                jets_utilization(nodes, 4), jets_utilization(nodes, 8),
                shell_script_utilization(nodes));
  }
  return 0;
}
