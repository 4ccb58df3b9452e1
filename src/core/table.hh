// Dense entity tables for the service hot path.
//
// The service tracks 10^5..10^6 workers and jobs; node-based std::maps pay
// an allocation plus pointer-chasing per entity and O(log n) per touch.
// Workers live in a sim::SlotMap (sim/slot_map.hh), the recycling,
// generation-checked table os::Machine also keeps its processes in. Jobs
// live in a DenseTable: JobIds are already dense (1, 2, 3, ...) and job
// records are kept for the service's lifetime (records()/record() serve
// them after settle), so the id *is* the slot + 1 and there is no
// generation axis. Backed by a deque so references stay valid across
// growth — place_job holds a Job& across co_await suspension points.
//
// Determinism: nothing here consults time or randomness — same operation
// sequence, same layout, bit for bit.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <utility>

#include "sim/slot_map.hh"

namespace jets::core {

/// Append-only dense table: id k (1-based) lives at slot k-1, forever.
template <typename T>
class DenseTable {
 public:
  using Id = std::uint64_t;

  /// Appends and returns the new occupant's id (== size() after append).
  Id push_back(T value) {
    rows_.push_back(std::move(value));
    return rows_.size();
  }

  T* find(Id id) {
    if (id == 0 || id > rows_.size()) return nullptr;
    return &rows_[static_cast<std::size_t>(id - 1)];
  }
  const T* find(Id id) const {
    return const_cast<DenseTable*>(this)->find(id);
  }
  T& at(Id id) {
    T* p = find(id);
    if (!p) throw std::out_of_range("DenseTable::at: no such id");
    return *p;
  }
  const T& at(Id id) const { return const_cast<DenseTable*>(this)->at(id); }

  T& back() { return rows_.back(); }
  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < rows_.size(); ++i) fn(i + 1, rows_[i]);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < rows_.size(); ++i) fn(i + 1, rows_[i]);
  }

 private:
  std::deque<T> rows_;  // deque: references survive growth
};

}  // namespace jets::core
