// Shared JETS-service fixture for the integration suites (core_service,
// chaos, retry, scale): a TestBed with the synthetic apps installed, the
// suites' common job-spec factories, batch-driving helpers, and the
// by-name reader of the service's registry counters. Binary sizes stay a
// per-suite choice — staging cost is part of what several tests time — so
// each suite passes its own manifest to the constructor.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/synthetic.hh"
#include "core/chaos.hh"
#include "core/standalone.hh"
#include "testbed.hh"

namespace jets::test {

/// GPFS binary manifest: {name, size in bytes}.
using BinaryList = std::vector<std::pair<std::string, std::uint64_t>>;

/// A bed with the synthetic apps installed and their binaries on GPFS.
struct ServiceBed : TestBed {
  apps::SyntheticResults results;

  explicit ServiceBed(os::MachineSpec spec, const BinaryList& binaries)
      : TestBed(std::move(spec)) {
    apps::install_synthetic_apps(apps, &results);
    for (const auto& [name, bytes] : binaries) {
      machine.shared_fs().put(name, bytes);
    }
  }

  /// Stand-alone options with a token worker overhead — fast tests.
  static core::StandaloneOptions fast_options() {
    core::StandaloneOptions o;
    o.worker.task_overhead = sim::milliseconds(2);
    return o;
  }

  /// The first `n` node ids — the usual enlistment set.
  static std::vector<os::NodeId> nodes(std::size_t n) {
    std::vector<os::NodeId> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<os::NodeId>(i));
    return v;
  }

  /// Enlists workers on the first `n` nodes.
  static void enlist(core::StandaloneJets& jets, std::size_t n) {
    jets.start(nodes(n));
  }

  /// Submits the batch immediately and drives the engine to quiescence.
  core::BatchReport run(core::StandaloneJets& jets,
                        std::vector<core::JobSpec> jobs) {
    core::BatchReport report;
    engine.spawn("batch",
                 [](core::StandaloneJets& jets, std::vector<core::JobSpec> jobs,
                    core::BatchReport& out) -> sim::Task<void> {
                   out = co_await jets.run_batch(std::move(jobs));
                 }(jets, std::move(jobs), report));
    engine.run();
    return report;
  }

  /// Waits for the workers, starts chaos (if given), optionally delays the
  /// submission, and runs the batch under a settlement deadline.
  core::BatchReport run_chaos(core::StandaloneJets& jets,
                              core::ChaosEngine* chaos,
                              std::vector<core::JobSpec> jobs,
                              sim::Duration submit_delay = 0,
                              sim::Duration settle_by = sim::seconds(600)) {
    core::BatchReport report;
    engine.spawn("driver",
                 [](core::StandaloneJets& jets, core::ChaosEngine* chaos,
                    std::vector<core::JobSpec> jobs, sim::Duration delay,
                    core::BatchReport& out) -> sim::Task<void> {
                   co_await jets.wait_workers();
                   if (chaos) chaos->start();
                   if (delay > 0) co_await sim::delay(delay);
                   out = co_await jets.run_batch(std::move(jobs));
                 }(jets, chaos, std::move(jobs), submit_delay, report));
    engine.run_until(settle_by);
    EXPECT_LT(engine.now(), settle_by) << "batch did not settle";
    return report;
  }
};

/// The service counter registered as "jets.service.<name>" (for example
/// "jobs.completed"). The registry is the service's only counter view; a
/// name it never registered fails the calling test instead of reading 0.
inline std::uint64_t service_counter(const core::Service& svc,
                                     std::string_view name) {
  const std::string full = "jets.service." + std::string(name);
  const obs::Counter* c = svc.metrics().find_counter(full);
  if (c == nullptr) {
    ADD_FAILURE() << "no counter registered as " << full;
    return 0;
  }
  return c->value;
}

inline core::JobSpec seq_job(std::vector<std::string> argv) {
  core::JobSpec s;
  s.argv = std::move(argv);
  return s;
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

}  // namespace jets::test
