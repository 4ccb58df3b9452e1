#include "obs/metrics.hh"

namespace jets::obs {

std::int64_t Histogram::quantile_upper_bound(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += buckets_[i];
    if (static_cast<double>(cum) >= target && cum > 0) {
      // Upper edge of bucket i; bucket 0 holds exact zeros.
      return i == 0 ? 0 : (std::int64_t{1} << i) - 1;
    }
  }
  return max_;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const Counter* c = find_counter(name);
  return c == nullptr ? 0 : c->value;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

std::int64_t MetricsRegistry::gauge_value(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second.value;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::snapshot() const {
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += "counter " + name + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out += "gauge " + name + " " + std::to_string(g.value) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += "histogram " + name + " count=" + std::to_string(h.count()) +
           " sum=" + std::to_string(h.sum()) +
           " min=" + std::to_string(h.min()) +
           " max=" + std::to_string(h.max()) + "\n";
  }
  return out;
}

}  // namespace jets::obs
