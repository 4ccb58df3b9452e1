// Fig 6 — JETS sequential-task launch rate on the Blue Gene/P (§6.1.1).
//
// No-op tasks ("only the cost of the process startup itself") are pushed
// through stand-alone JETS on Surveyor allocations of increasing size,
// with one worker per core (4/node). The paper reports >7,000 launches/s
// on the full rack (1,024 nodes / 4,096 cores) and near-linear scaling
// below that; the single-point "ideal" is one node launching processes
// locally with no communication on all four cores.
#include <cstdio>

#include "harness.hh"

using namespace jets;

namespace {

struct RatePoint {
  std::size_t workers = 0;
  std::size_t jobs = 0;
  double makespan_s = 0.0;
  double rate = 0.0;  // completed tasks per second of makespan
};

RatePoint jets_rate_point(std::size_t alloc_nodes, int tasks_per_slot,
                          bench::TraceSession& trace) {
  bench::Bed bed(os::Machine::surveyor(alloc_nodes));
  trace.attach(bed);
  auto options = bench::surveyor_options(/*workers_per_node=*/4);
  options.worker.stage_files = {pmi::kProxyBinary, "noop"};
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(bed.nodes(alloc_nodes));
  const std::size_t slots = jets.total_slots();
  std::vector<core::JobSpec> jobs(slots * static_cast<std::size_t>(tasks_per_slot),
                                  bench::seq_job({"noop"}));
  core::BatchReport report;
  bed.run([&]() -> sim::Task<void> {
    co_await jets.wait_workers();
    report = co_await jets.run_batch(jobs);
  });
  trace.finish();
  RatePoint p;
  p.workers = slots;
  p.jobs = jobs.size();
  p.makespan_s = report.makespan_seconds();
  p.rate = static_cast<double>(report.completed) / p.makespan_s;
  return p;
}

double jets_rate(std::size_t alloc_nodes, int tasks_per_slot,
                 bench::TraceSession& trace) {
  return jets_rate_point(alloc_nodes, tasks_per_slot, trace).rate;
}

/// The "ideal" point: a single node forking no-ops on its 4 cores with no
/// scheduler or network involved.
double ideal_single_node_rate() {
  bench::Bed bed(os::Machine::surveyor(1));
  constexpr int kPerCore = 50;
  bed.machine.node(0).local_fs().put("noop", 1'000'000);
  bed.run([&]() -> sim::Task<void> {
    for (int core = 0; core < 4; ++core) {
      bed.engine.spawn("forker", [](os::Machine& m) -> sim::Task<void> {
        for (int i = 0; i < kPerCore; ++i) {
          os::ExecOptions opts;
          opts.binary = "noop";
          auto pid = m.exec(0, "noop", []() -> sim::Task<void> { co_return; }(),
                            std::move(opts));
          co_await m.wait(pid);
        }
      }(bed.machine));
    }
    co_return;
  });
  return 4.0 * kPerCore / sim::to_seconds(bed.engine.now());
}

}  // namespace

int main() {
  bench::figure_header(
      "fig06", "sequential task launch rate vs allocation size (Surveyor BG/P)",
      ">7,000 launches/s at 1,024 nodes (4,096 cores); near-linear below; "
      "'ideal' = one node, 4 cores, no JETS");
  std::printf("# ideal_single_node_rate %.1f jobs/s\n", ideal_single_node_rate());
  std::printf("%-8s %-8s %s\n", "nodes", "cores", "jobs_per_s");
  bench::TraceSession trace;
  for (std::size_t nodes : {32u, 64u, 128u, 256u, 512u, 1024u}) {
    const int tasks_per_slot = nodes >= 512 ? 10 : 20;
    const double rate = jets_rate(nodes, tasks_per_slot, trace);
    std::printf("%-8zu %-8zu %.0f\n", nodes, nodes * 4, rate);
  }
  trace.report();
  // Large-N sweep (JETS_LARGE_N): the paper stops at one rack, but the
  // scale tests push the same hot path to 10^4..10^6 workers with ~2
  // no-op tasks each. Rows are '#'-prefixed key=value so bench.sh can
  // fold them into BENCH_sim.json; with the variable unset this block is
  // inert and the output above is byte-identical to the golden manifest.
  if (const int max_exp = bench::large_n_exponent(); max_exp > 0) {
    std::printf("# large-N launch-rate series (workers = 4/node, 2 tasks/slot)\n");
    bench::TraceSession large_trace;
    std::size_t workers = 10'000;
    for (int exp = 4; exp <= max_exp; ++exp, workers *= 10) {
      const auto p = jets_rate_point(workers / 4, /*tasks_per_slot=*/2,
                                     large_trace);
      std::printf("# largeN workers=%zu jobs=%zu tasks_per_s=%.0f "
                  "makespan_s=%.2f\n",
                  p.workers, p.jobs, p.rate, p.makespan_s);
    }
  }
  return 0;
}
