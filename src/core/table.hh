// Dense entity tables for the service hot path.
//
// The service tracks 10^5..10^6 workers and jobs; node-based std::maps pay
// an allocation plus pointer-chasing per entity and O(log n) per touch.
// These tables follow the engine's EventSlot slab idiom (sim/engine.hh):
// entries live in a deque-backed slab addressed by dense slot index, freed
// slots go on an intrusive free list, and a generation counter per slot
// makes stale handles fail closed — a handle minted for a dead occupant
// never aliases the slot's next tenant.
//
// Two shapes:
//
//   * SlotMap<T>  — recycling table for workers. Ids are
//     (generation << 32) | slot with generation starting at 1, so an id is
//     never 0 (0 stays the "none" sentinel throughout the service).
//     find() on an erased or recycled id returns nullptr.
//   * DenseTable<T> — append-only table for jobs. JobIds are already dense
//     (1, 2, 3, ...) and job records are kept for the service's lifetime
//     (records()/record() serve them after settle), so the id *is* the
//     slot + 1 and there is no generation axis. Rows live in fixed blocks
//     of kBlockRows, so references stay valid across growth — place_job
//     holds a Job& across co_await suspension points — and a row costs no
//     allocation of its own (a deque gives a ~500-byte Job a node each).
//
// Determinism: slot allocation is LIFO off the free list (matching the
// engine), iteration is slot order, and nothing here consults time or
// randomness — same operation sequence, same layout, bit for bit.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace jets::core {

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

/// Append-only dense table: id k (1-based) lives at slot k-1, forever.
template <typename T>
class DenseTable {
 public:
  using Id = std::uint64_t;
  /// 256 Jobs are ~127 KB. Blocks of 8 to 64 rows raised the peak RSS of
  /// a 30,000-job crash/restore run by ~7 MB over one deque node per row,
  /// as the restore frees one table and fills the next; 128 rows and up
  /// did not.
  static constexpr std::size_t kBlockRows = 256;

  /// Appends and returns the new occupant's id (== size() after append).
  Id push_back(T value) {
    if (size_ % kBlockRows == 0) {
      blocks_.push_back(std::make_unique<T[]>(kBlockRows));
    }
    row(size_) = std::move(value);
    return ++size_;
  }

  T* find(Id id) {
    if (id == 0 || id > size_) return nullptr;
    return &row(static_cast<std::size_t>(id - 1));
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

  T& back() { return row(size_ - 1); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < size_; ++i) fn(i + 1, row(i));
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) fn(i + 1, row(i));
  }

 private:
  T& row(std::size_t i) { return blocks_[i / kBlockRows][i % kBlockRows]; }
  const T& row(std::size_t i) const {
    return blocks_[i / kBlockRows][i % kBlockRows];
  }

  /// Whole blocks of default rows; rows past size_ are not in the table.
  std::vector<std::unique_ptr<T[]>> blocks_;
  std::size_t size_ = 0;
};

}  // namespace jets::core
