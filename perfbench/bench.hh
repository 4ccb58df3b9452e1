// Host-time benchmark program: shared declarations.
//
// One process runs one repetition of one workload and prints one JSON
// object. run.py starts the repetitions, aggregates them and applies the
// output checks; see README.md for the workloads and metrics. The test bed
// (machine, apps, image sizes) and the Surveyor calibration are the figure
// harnesses' (bench/harness.hh), so the simulated schedule is the paper's.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "core/standalone.hh"
#include "obs/metrics.hh"
#include "obs/phase_table.hh"
#include "obs/tracer.hh"
#include "sim/engine.hh"

namespace jets::perfbench {

using bench::Bed;

/// Counts actor spawns by name — the per-layer work counts (exec reapers,
/// mpiexec connections, swift statements...) read from outside the program.
class SpawnCounter final : public sim::EngineObserver {
 public:
  void on_spawn(sim::Time, sim::ActorId, const std::string& name) override {
    ++by_name_[name];
    ++total_;
  }
  void on_finish(sim::Time, sim::ActorId, const std::string&) override {}
  void on_kill(sim::Time, sim::ActorId, const std::string&) override {}

  std::uint64_t total() const { return total_; }
  std::uint64_t count(const std::string& name) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, std::uint64_t> by_name_;
  std::uint64_t total_ = 0;
};

/// Work counts at one instant, read from outside the program: engine,
/// arena and rpc registry counters plus spawns by name.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t messages = 0;  // arena flushes + coalesced deliveries
  std::uint64_t coalesced = 0;
  std::uint64_t rpc_calls = 0;
  std::uint64_t rpc_notifies = 0;
  std::uint64_t rpc_decode_errors = 0;
  std::uint64_t slab_high_water = 0;   // whole run so far
  std::uint64_t arena_high_water = 0;  // whole run so far
  SpawnCounter spawns;
};

/// Observes one run from outside the program: the rpc MetricsRegistry
/// injected through Config::metrics, and optionally a SpawnCounter and an
/// obs::Tracer. Counts are read at submit and at the end of the run; the
/// timed window's counts are their difference.
class Recorder {
 public:
  Recorder(bool count_spawns, bool trace)
      : count_spawns_(count_spawns), trace_(trace) {}

  /// Call right after the Bed is built, before any actor starts. Keep the
  /// returned registration in a local declared after the Bed, so it ends
  /// before the engine does.
  std::unique_ptr<sim::ScopedObserver> attach(Bed& bed);
  obs::MetricsRegistry& registry() { return registry_; }
  void mark_submit(Bed& bed) { at_submit_ = read(bed); }
  /// Call once the engine has drained, before the Bed is destroyed.
  void mark_end(Bed& bed);

  const Counts& at_submit() const { return at_submit_; }
  const Counts& at_end() const { return at_end_; }
  /// Spawns of actors named `name` between submit and end.
  std::uint64_t window_spawns(const char* name) const {
    return at_end_.spawns.count(name) - at_submit_.spawns.count(name);
  }
  /// Tracer spans and their phase table; empty unless tracing.
  std::uint64_t spans() const { return spans_; }
  const obs::PhaseTable& phases() const { return phases_; }

 private:
  Counts read(Bed& bed);

  bool count_spawns_;
  bool trace_;
  obs::MetricsRegistry registry_;
  // The Recorder outlives the Bed each runner builds, so the machine never
  // holds a dangling tracer or observer.
  std::unique_ptr<obs::Tracer> tracer_;
  SpawnCounter spawns_;
  Counts at_submit_;
  Counts at_end_;
  std::uint64_t spans_ = 0;
  obs::PhaseTable phases_;
};

/// One batch through core::StandaloneJets on Surveyor nodes, closed loop:
/// set-up (machine, apps, service, worker registration) ends when the whole
/// batch is submitted; the timed window runs until the engine drains.
struct BatchRun {
  core::BatchReport report;
  double setup_s = 0;
  double wall_s = 0;
  std::uint64_t retries = 0;
};

BatchRun run_standalone_batch(Recorder& recorder, std::size_t nodes,
                              int workers_per_node,
                              std::vector<core::JobSpec> jobs,
                              std::vector<std::string> stage_files);

/// Flat JSON object writer: keys in insertion order, numbers and strings.
class JsonObject {
 public:
  void put(const std::string& key, double v);
  void put(const std::string& key, std::uint64_t v);
  void put(const std::string& key, const std::string& v);
  void put_raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Attach an obs::Tracer and a SpawnCounter (the per-layer run).
  bool traced = false;
  /// Also time the per-layer probes after the workload.
  bool probes = false;
};

/// Runs one repetition; returns its JSON record. Throws
/// std::invalid_argument for an unknown workload.
std::string run_workload(const RunOptions& options);

/// Per-layer probes. Each returns a JSON object with its raw host time and
/// the work counts of its private simulation, so run.py can subtract the
/// lower layers' share. `argvs` are the workload's own command lines (rpc
/// frames are built from them).
std::string run_probes(const std::vector<std::vector<std::string>>& argvs);

}  // namespace jets::perfbench
