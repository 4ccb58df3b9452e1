// Central metrics registry: counters, gauges, and histograms behind stable
// dotted names.
//
// It is the one counter view of core::Service and the chaos layer:
// components get-or-create an instrument once, cache the returned pointer,
// and bump it on the hot path — one pointer-indirect add, no name lookup
// per increment — and readers (benches, tests) look instruments up by
// name. Instrument addresses are stable for the registry's lifetime
// (node-based map storage), and snapshot() renders every instrument sorted
// by name, so two same-seed runs snapshot identically.
//
// Naming scheme (see DESIGN.md §8): dotted, lowercase, unit-suffixed for
// histograms — e.g. "jets.service.jobs.completed",
// "jets.service.failures.app-exit", "jets.service.queue_wait_ns".
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace jets::obs {

/// Monotonic event count.
struct Counter {
  std::uint64_t value = 0;
  void inc(std::uint64_t d = 1) { value += d; }
};

/// Point-in-time level (can go down: connected workers, running jobs).
struct Gauge {
  std::int64_t value = 0;
  void set(std::int64_t v) { value = v; }
  void add(std::int64_t d) { value += d; }
};

/// Power-of-two-bucketed distribution of non-negative int64 samples
/// (durations in ns, sizes in bytes). Bucket i counts samples in
/// [2^(i-1), 2^i) with bucket 0 counting zeros; exact count/sum/min/max
/// ride along for mean and range reporting.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(std::int64_t v) {
    if (v < 0) v = 0;
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return count_ ? min_ : 0; }
  std::int64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }

  /// Upper-bound estimate of the q-quantile (q in [0,1]): the upper edge of
  /// the bucket where the cumulative count crosses q. Deterministic and
  /// monotone in q; resolution is one power of two.
  std::int64_t quantile_upper_bound(double q) const;

 private:
  static std::size_t bucket_of(std::int64_t v) {
    std::size_t b = 0;
    while (v > 0 && b < kBuckets - 1) {
      v >>= 1;
      ++b;
    }
    return b;
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. References stay valid for the registry's lifetime.
  Counter& counter(std::string_view name) {
    return counters_[std::string(name)];
  }
  Gauge& gauge(std::string_view name) { return gauges_[std::string(name)]; }
  Histogram& histogram(std::string_view name) {
    return histograms_[std::string(name)];
  }

  /// Read-only lookups: value of the named instrument, or 0/null when it
  /// was never created (reads never create). The find_* forms tell an
  /// unregistered name apart from a zero count.
  std::uint64_t counter_value(std::string_view name) const;
  std::int64_t gauge_value(std::string_view name) const;
  const Counter* find_counter(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  std::size_t instrument_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Text snapshot, one instrument per line, each section sorted by name:
  ///   counter <name> <value>
  ///   gauge <name> <value>
  ///   histogram <name> count=<n> sum=<s> min=<m> max=<M>
  /// Benches append this under '#'-comment prefixes; tests diff it.
  std::string snapshot() const;

 private:
  // std::map: node-based (stable addresses for cached pointers) and
  // name-sorted (deterministic snapshots). Registration is cold path.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace jets::obs
