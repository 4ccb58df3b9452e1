// Fig 13 — NAMD/JETS load level over time, full rack (§6.1.6).
//
// Busy cores (one per MPI process) sampled over the 1,536-job batch: a
// fast ramp to ~4,096... in the paper the plot rises to the allocation
// width, stays flat for most of the ~11-minute run, and decays through the
// long tail.
#include <cstdio>

#include "namd_batch.hh"

using namespace jets;

int main() {
  bench::figure_header("fig13", "NAMD/JETS load level (busy cores) over time",
                       "fast ramp, flat plateau near allocation width, "
                       "long-tail decay");
  auto result = bench::run_namd_batch(1024);
  sim::TimeSeries ds = result.load.downsample(120);
  std::printf("%-10s %s\n", "time_s", "busy_cores");
  for (const auto& [t, v] : ds.points()) {
    std::printf("%-10.1f %.0f\n", sim::to_seconds(t), v);
  }
  std::printf("# makespan %.0f s, utilization %.3f\n",
              result.report.makespan_seconds(), result.report.utilization());
  // Large-N sweep (JETS_LARGE_N): same NAMD bag-of-tasks shape at
  // 10^4..10^5 workers (one MPI-process worker per node, 1.5 jobs per
  // worker) — the gang-formation path at scale, complementing fig06's
  // sequential sweep. Capped at 10^5: each job is a 4-proc gang, an order
  // of magnitude more simulation work per task than a no-op launch.
  // Inert with the variable unset, keeping the default output golden.
  if (const int max_exp = bench::large_n_exponent(/*max_exp=*/5); max_exp > 0) {
    std::printf("# large-N load-level series (1 worker/node, 4-proc gangs)\n");
    std::size_t nodes = 10'000;
    for (int exp = 4; exp <= max_exp; ++exp, nodes *= 10) {
      auto big = bench::run_namd_batch(nodes);
      const double makespan = big.report.makespan_seconds();
      std::printf("# largeN workers=%zu jobs=%zu tasks_per_s=%.1f "
                  "makespan_s=%.0f utilization=%.3f\n",
                  nodes, static_cast<std::size_t>(big.report.completed),
                  big.report.completed / makespan, makespan,
                  big.report.utilization());
    }
  }
  return 0;
}
