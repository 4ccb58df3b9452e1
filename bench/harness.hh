// Shared infrastructure for the figure-reproduction harnesses.
//
// Each bench binary regenerates one figure of the paper's evaluation (§6):
// it builds the right machine, installs the right apps, runs the workload,
// and prints the figure's series as whitespace-separated rows prefixed by
// '#'-comments describing axes and the paper's reported shape.
//
// Calibration (see DESIGN.md §5): the simulator is tuned to the paper's
// *reported magnitudes*, not to unknown hardware counters. The key knobs:
//
//   kBgpWorkerOverhead   per-task cost of the pilot worker script on an
//                        850 MHz BG/P core, set so a full Surveyor rack
//                        (4,096 worker slots) saturates the central
//                        dispatcher right around the paper's ~7,000
//                        sequential launches/s (Fig 6);
//   dispatch_overhead    central JETS scheduler cost per task message;
//   mpi_job_overhead     per-MPI-job mpiexec spawn on the login node;
//   proxy_setup_cost     serialized Hydra bootstrap per proxy, which makes
//                        wide (64-proc) jobs individually slow to start
//                        (Fig 9);
//   kSshCost             per-host ssh setup paid by the mpiexec/shell-
//                        script baseline (Fig 7).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/namd.hh"
#include "apps/synthetic.hh"
#include "core/service.hh"
#include "core/standalone.hh"
#include "obs/chrome_trace.hh"
#include "obs/phase_table.hh"
#include "obs/tracer.hh"
#include "os/machine.hh"
#include "os/program.hh"
#include "pmi/hydra.hh"
#include "sim/sim.hh"

namespace jets::bench {

// --- Calibration constants ---------------------------------------------------

/// Pilot-script per-task cost on a BG/P compute node (Perl/shell on a
/// single 850 MHz PPC450 core).
inline constexpr sim::Duration kBgpWorkerOverhead = sim::milliseconds(450);
/// Same on modern x86 (Breadboard/Eureka).
inline constexpr sim::Duration kX86WorkerOverhead = sim::milliseconds(8);
/// ssh connection + auth per host for the launcher=ssh baseline.
inline constexpr sim::Duration kSshCost = sim::milliseconds(300);
/// Hydra bootstrap serialization on the BG/P login node.
inline constexpr sim::Duration kBgpProxySetup = sim::milliseconds(40);
/// mpiexec fork/wire-up per MPI job on the (shared, busy) BG/P login node.
/// At 48 ms the full-rack 4-proc workload of Fig 9 pushes the dispatcher to
/// saturation — the "load on the central JETS scheduler becoming
/// excessive" that the paper reports past 512 nodes.
inline constexpr sim::Duration kBgpMpiJobOverhead = sim::milliseconds(48);

// --- Test-bed ------------------------------------------------------------------

/// Machine + app registry + binaries, ready to run JETS workloads.
struct Bed {
  sim::Engine engine;
  os::Machine machine;
  os::AppRegistry apps;
  apps::SyntheticResults synthetic;

  explicit Bed(os::MachineSpec spec) : machine(engine, std::move(spec)) {
    apps.install(pmi::kProxyBinary, pmi::Mpiexec::proxy_program(apps));
    machine.shared_fs().put(pmi::kProxyBinary, 2'000'000);
    apps::install_synthetic_apps(apps, &synthetic);
    apps::install_namd_app(apps);
    // Realistic image sizes: the synthetic apps are trivial binaries; the
    // MPI ones carry the MPICH library.
    machine.shared_fs().put("noop", 16'384);
    machine.shared_fs().put("sleep", 16'384);
    // MPI app images carry MPICH + the app (~25 MB); re-read from GPFS by
    // every rank unless staged — the PPN-sensitive cost of Fig 15.
    machine.shared_fs().put("mpi_sleep", 25'000'000);
    machine.shared_fs().put("mpi_sleep_write", 25'000'000);
    machine.shared_fs().put("pingpong", 25'000'000);
    machine.shared_fs().put("namd_segment", 60'000'000);  // NAMD-sized image
  }

  std::vector<os::NodeId> nodes(std::size_t n) const {
    std::vector<os::NodeId> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<os::NodeId>(i));
    return v;
  }

  /// Runs `body` as an actor and drives the engine to quiescence.
  template <typename F>
  void run(F&& body) {
    engine.spawn("bench-driver", std::forward<F>(body)());
    engine.run();
  }
};

// --- Tracing -----------------------------------------------------------------

/// Env-gated span tracing for figure benches. With JETS_TRACE unset this is
/// inert — no tracer is attached and the bench's output is byte-identical
/// to an untraced run. With JETS_TRACE set, attach() wires a fresh
/// obs::Tracer into each data point's Bed; finish() folds its closed spans
/// into one cross-point PhaseTable, which report() prints after the series
/// as '# obs '-prefixed lines (so series parsers that skip comments are
/// unaffected). JETS_TRACE_JSON=<path> additionally writes a Chrome
/// trace-event file for the first traced data point.
struct TraceSession {
  bool enabled = std::getenv("JETS_TRACE") != nullptr;
  const char* json_path = std::getenv("JETS_TRACE_JSON");
  obs::PhaseTable table;
  std::unique_ptr<obs::Tracer> tracer;
  bool json_written = false;

  /// Attaches a fresh tracer to the bed's machine (no-op when disabled).
  void attach(Bed& bed) {
    if (!enabled) return;
    tracer = std::make_unique<obs::Tracer>(bed.engine);
    bed.machine.set_tracer(tracer.get());
  }

  /// Absorbs the current tracer's spans and drops it. Call after the data
  /// point's run completes, before the Bed is destroyed.
  void finish() {
    if (!tracer) return;
    table.absorb(*tracer);
    if (json_path != nullptr && !json_written) {
      json_written = obs::write_chrome_trace(*tracer, json_path);
    }
    tracer.reset();
  }

  /// Prints the accumulated per-phase latency table ('# obs ' lines).
  void report() const {
    if (enabled) std::fputs(table.render().c_str(), stdout);
  }
};

/// Stand-alone JETS options calibrated for Surveyor experiments.
inline core::StandaloneOptions surveyor_options(int workers_per_node) {
  core::StandaloneOptions o;
  o.workers_per_node = workers_per_node;
  o.worker.task_overhead = kBgpWorkerOverhead;
  // The paper's scripts stage the proxy and application binaries to the
  // ZeptoOS ramdisk (§6.1.4); benches extend this list per workload.
  o.worker.stage_files = {pmi::kProxyBinary};
  o.service.dispatch_overhead = sim::microseconds(120);
  o.service.mpi_job_overhead = kBgpMpiJobOverhead;
  o.service.proxy_setup_cost = kBgpProxySetup;
  return o;
}

/// Stand-alone JETS options calibrated for x86 clusters.
inline core::StandaloneOptions x86_options(int workers_per_node) {
  core::StandaloneOptions o;
  o.workers_per_node = workers_per_node;
  o.worker.task_overhead = kX86WorkerOverhead;
  o.worker.stage_files = {pmi::kProxyBinary};
  o.service.dispatch_overhead = sim::microseconds(120);
  o.service.mpi_job_overhead = sim::milliseconds(2);
  o.service.proxy_setup_cost = sim::milliseconds(1);
  return o;
}

inline core::JobSpec mpi_job(int nprocs, std::vector<std::string> argv,
                             int ppn = 1) {
  core::JobSpec s;
  s.kind = core::JobKind::kMpi;
  s.nprocs = nprocs;
  s.ppn = ppn;
  s.argv = std::move(argv);
  return s;
}

inline core::JobSpec seq_job(std::vector<std::string> argv) {
  core::JobSpec s;
  s.argv = std::move(argv);
  return s;
}

/// The service counter registered as "jets.service.<name>" (for example
/// "jobs.completed"); the registry is the service's only counter view.
inline std::size_t service_counter(const core::Service& svc,
                                   std::string_view name) {
  return static_cast<std::size_t>(
      svc.metrics().counter_value("jets.service." + std::string(name)));
}

inline void figure_header(const char* id, const char* title,
                          const char* paper_shape) {
  std::printf("# %s — %s\n", id, title);
  std::printf("# paper: %s\n", paper_shape);
}

/// JETS_LARGE_N: opt-in scale sweep far past the paper's rack. Returns the
/// largest worker-count exponent to run (10^4 .. 10^e), clamped to
/// [4, `max_exp`]; 0 when the variable is unset, so the default output —
/// and the golden manifest hashes — stay byte-identical. A bare or
/// non-numeric value means "the standard sweep", 10^5.
inline int large_n_exponent(int max_exp = 6) {
  const char* env = std::getenv("JETS_LARGE_N");
  if (env == nullptr) return 0;
  int e = std::atoi(env);
  if (e < 4) e = 5;
  return e < max_exp ? e : max_exp;
}

}  // namespace jets::bench
