// Arena allocator for in-flight net::Message payloads.
//
// Every buffered send used to move its Message into a per-send heap
// closure (tag string + args vector + connection ref blow past
// std::function's 16-byte inline buffer), so a launch burst at 10^5..10^6
// messages paid an allocation and a fat copy per delivery event. Instead,
// in-flight messages now live in this slab — the EventSlot idiom from
// sim/engine.hh: deque-backed slots, intrusive LIFO free list — threaded
// into per-pipe FIFO chains by slot index, and the delivery closure shrinks
// to one counted reference to the connection block (16 bytes).
// std::function would still put that closure on the heap (it keeps only
// trivially copyable functors inline), so the engine stores callbacks in
// sim::Callback, whose inline buffer holds it: the delivery event
// allocates nothing.
//
// Delivery stays one engine event per send (so the event heap's (time,
// seq) reservations are byte-identical to the unbatched scheme), but each
// event *flushes the whole due prefix* of its pipe's chain: when a burst
// of sends lands at the same instant, the first event delivers the batch
// and the rest pop an empty chain. The coalesced() counter measures
// exactly those piggy-backed deliveries.
//
// Determinism: slot reuse is LIFO, chains are FIFO per pipe, due times are
// monotone per pipe (the wire clock only moves forward), and nothing here
// consults randomness.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>

#include "net/message.hh"
#include "sim/time.hh"

namespace jets::net {

class MessageArena {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Slot {
    Message msg;
    sim::Time due = 0;       // delivery instant on the receiving pipe
    std::uint32_t next = kNil;  // next in the pipe's FIFO chain / free list
  };

  /// Parks a message until `due`; returns its slot for chain threading.
  std::uint32_t acquire(Message&& m, sim::Time due) {
    std::uint32_t idx;
    if (free_head_ != kNil) {
      idx = free_head_;
      free_head_ = slots_[idx].next;
    } else {
      idx = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[idx];
    s.msg = std::move(m);
    s.due = due;
    s.next = kNil;
    ++in_flight_;
    high_water_ = std::max(high_water_, in_flight_);
    return idx;
  }

  /// Returns the slot to the free list. The payload is released now (not
  /// at reuse) so a drained arena holds no message bytes.
  void release(std::uint32_t idx) {
    Slot& s = slots_[idx];
    s.msg = Message{};
    s.next = free_head_;
    free_head_ = idx;
    --in_flight_;
  }

  Slot& slot(std::uint32_t idx) { return slots_[idx]; }
  const Slot& slot(std::uint32_t idx) const { return slots_[idx]; }

  // Observability (scale tests bound these; bench harnesses report them).
  /// Messages currently parked between send and delivery.
  std::size_t in_flight() const { return in_flight_; }
  /// Most messages ever parked at once (slab high-water mark).
  std::size_t high_water() const { return high_water_; }
  /// Slots ever allocated (slab footprint; >= high_water only transiently).
  std::size_t slab_size() const { return slots_.size(); }
  /// Flush events that found work to do.
  std::uint64_t flushes() const { return flushes_; }
  /// Messages delivered by a flush beyond its own triggering send — the
  /// same-tick batch the per-event scheme would have delivered one by one.
  std::uint64_t coalesced() const { return coalesced_; }

  /// Flush bookkeeping, called by the pipe drain loop.
  void note_flush(std::size_t delivered) {
    if (delivered == 0) return;
    ++flushes_;
    coalesced_ += delivered - 1;
  }

 private:
  std::deque<Slot> slots_;  // deque: slots stay put as the slab grows
  std::uint32_t free_head_ = kNil;
  std::size_t in_flight_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t coalesced_ = 0;
};

}  // namespace jets::net
