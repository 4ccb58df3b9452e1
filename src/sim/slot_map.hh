// Generation-checked recycling table: the slab idiom of the engine's event
// and actor slots (sim/engine.hh) as a reusable container.
//
// Entries live in a deque-backed slab addressed by dense slot index, freed
// slots go on an intrusive free list, and a generation counter per slot
// makes stale handles fail closed — a handle minted for a dead occupant
// never aliases the slot's next tenant. Ids are (generation << 32) | slot
// with generation starting at 1, so an id is never 0 (0 stays the "none"
// sentinel for its users: the service's worker ids, os::Machine's pids).
// find() on an erased or recycled id returns nullptr.
//
// Determinism: slot allocation is LIFO off the free list (matching the
// engine), iteration is slot order, and nothing here consults time or
// randomness — same operation sequence, same layout, bit for bit.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <utility>

namespace jets::sim {

template <typename T>
class SlotMap {
 public:
  using Id = std::uint64_t;

  static constexpr std::uint32_t slot_of(Id id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }
  static constexpr std::uint32_t gen_of(Id id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Claims a slot (LIFO off the free list, else a fresh one) and returns
  /// the occupant's handle.
  Id insert(T value) {
    std::uint32_t slot;
    if (free_head_ != kNone) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
      slots_[slot].value = std::move(value);
      slots_[slot].live = true;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
      slots_[slot].value = std::move(value);
      slots_[slot].live = true;
    }
    ++live_;
    return (static_cast<Id>(slots_[slot].gen) << 32) | slot;
  }

  /// The occupant named by `id`, or nullptr if it was erased (or the slot
  /// has since been recycled — the generation check fails closed).
  T* find(Id id) {
    const std::uint32_t slot = slot_of(id);
    if (slot >= slots_.size()) return nullptr;
    Slot& s = slots_[slot];
    if (!s.live || s.gen != gen_of(id)) return nullptr;
    return &s.value;
  }
  const T* find(Id id) const {
    return const_cast<SlotMap*>(this)->find(id);
  }

  /// Like find() but throws on a stale handle (map::at semantics).
  T& at(Id id) {
    T* p = find(id);
    if (!p) throw std::out_of_range("SlotMap::at: stale handle");
    return *p;
  }
  const T& at(Id id) const { return const_cast<SlotMap*>(this)->at(id); }

  /// Frees the slot and bumps its generation, killing every outstanding
  /// handle to this occupant. No-op on a stale handle.
  void erase(Id id) {
    const std::uint32_t slot = slot_of(id);
    if (slot >= slots_.size()) return;
    Slot& s = slots_[slot];
    if (!s.live || s.gen != gen_of(id)) return;
    s.live = false;
    ++s.gen;
    s.value = T{};  // release owned resources now, not at reuse
    s.next_free = free_head_;
    free_head_ = slot;
    --live_;
  }

  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  /// Most slots ever allocated at once (slab high-water mark).
  std::size_t slab_high_water() const { return slots_.size(); }

  /// Visits live occupants in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      Slot& s = slots_[slot];
      if (s.live) fn((static_cast<Id>(s.gen) << 32) | slot, s.value);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      const Slot& s = slots_[slot];
      if (s.live) fn((static_cast<Id>(s.gen) << 32) | slot, s.value);
    }
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  struct Slot {
    /// Starts at 1 so no id is ever 0; bumped on erase.
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNone;
    bool live = false;
    T value{};
  };

  std::deque<Slot> slots_;  // deque: references survive growth
  std::uint32_t free_head_ = kNone;
  std::size_t live_ = 0;
};

}  // namespace jets::sim
