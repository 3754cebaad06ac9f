// Discrete-event simulation engine.
//
// The engine owns a priority queue of timestamped events. Two event kinds
// exist: coroutine resumptions (the workhorse — every `co_await delay(...)`,
// channel receive, or socket operation schedules one) and plain callbacks
// (used by timers, fault injectors, and periodic samplers).
//
// Hot-path layout: event payloads live in a slab (free-list recycled), and
// the priority queue holds only compact {time, seq, slot, gen} index
// entries, so heap sifts move 24-byte PODs instead of fat closures. Actors
// live in a second slab whose cells never move, so each actor's context is
// a cell of it and spawning allocates nothing once the slab has grown to
// the live high-water mark.
// Cancellation is generation-based on both axes:
//
//   * a TimerHandle remembers its event slot's generation; cancel() frees
//     the slot (releasing the closure's captures *immediately*) and bumps
//     the generation, so the stale heap entry is skipped when it surfaces;
//   * a Resumption remembers its actor slot's generation; killing the actor
//     bumps it, so stale resumptions are skipped without any weak_ptr lock.
//
// A storm of cancelled timers cannot bloat the heap: once known-dead index
// entries outnumber live ones the heap is compacted in place (lazy deletion
// with periodic sweeps). Compaction only removes entries that would have
// been skipped anyway, so the (time, seq) execution order — and therefore
// bit-reproducibility — is unchanged.
//
// Single-threaded by design: simulated concurrency comes from interleaving
// coroutines in simulated time, and equal-time events run in FIFO insertion
// order, so every run is bit-reproducible.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace jets::sim {

/// Identifier of a spawned actor (a root coroutine plus its context).
using ActorId = std::uint64_t;

/// Observer for actor lifecycle events (tests/trace_log.hh has a recorder).
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  virtual void on_spawn(Time at, ActorId id, const std::string& name) = 0;
  virtual void on_finish(Time at, ActorId id, const std::string& name) = 0;
  virtual void on_kill(Time at, ActorId id, const std::string& name) = 0;
};

class Engine;

/// Handle to a scheduled callback; cancel() prevents a pending fire and
/// releases the callback's captures immediately. Copyable; all copies refer
/// to the same slot+generation, so cancelling any of them works and double
/// cancels are no-ops. The engine must outlive any cancel() call.
class TimerHandle {
 public:
  TimerHandle() = default;
  TimerHandle(Engine* engine, std::uint32_t slot, std::uint32_t gen)
      : engine_(engine), slot_(slot), gen_(gen) {}
  inline void cancel();
  /// Absolute time the callback will fire, or nullopt if the handle is
  /// empty, already fired, or cancelled. Lets checkpoint code serialize a
  /// timer as its deadline and re-arm it on restore.
  inline std::optional<Time> fire_time() const;
  bool valid() const noexcept { return engine_ != nullptr; }

 private:
  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// A suspended coroutine waiting to be resumed, together with the actor it
/// belongs to. `ctx` points into the engine's actor slab, whose cells are
/// reused: once the actor has finished or been killed it may name a later
/// actor's context, so it is only dereferenced after the slot-generation
/// check passes (expired() is false).
struct Resumption {
  std::coroutine_handle<> handle;
  ActorContext* ctx = nullptr;
  Engine* engine = nullptr;
  std::uint32_t actor_slot = 0;
  std::uint32_t actor_gen = 0;

  static Resumption of(std::coroutine_handle<> h, ActorContext* ctx) {
    return Resumption{h, ctx, ctx->engine, ctx->slot, ctx->gen};
  }

  /// True once the owning actor finished or was killed (epoch check
  /// against the actor slot's generation). Default-constructed
  /// resumptions are expired.
  inline bool expired() const;
};

namespace detail {

class WaitList;

/// Link of an intrusive FIFO of blocked coroutines. Awaiters derive from
/// it, so a suspended coroutine's node lives in its own frame and blocking
/// allocates nothing. A node still linked when its frame is destroyed (its
/// actor was killed) unlinks itself; a list destroyed under linked nodes
/// detaches them, so neither side can dangle.
class WaitNode {
 public:
  WaitNode() = default;
  WaitNode(const WaitNode&) = delete;
  WaitNode& operator=(const WaitNode&) = delete;
  ~WaitNode() { unlink(); }

  inline void unlink();

  /// The coroutine to wake; set by the awaiter when it suspends.
  Resumption resume;

 private:
  friend class WaitList;
  WaitList* list_ = nullptr;
  WaitNode* prev_ = nullptr;
  WaitNode* next_ = nullptr;
};

class WaitList {
 public:
  WaitList() = default;
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;
  ~WaitList() {
    while (head_ != nullptr) pop_front();
  }

  bool empty() const noexcept { return head_ == nullptr; }
  std::size_t size() const noexcept { return size_; }

  void push_back(WaitNode* n) {
    assert(n->list_ == nullptr);
    n->list_ = this;
    n->prev_ = tail_;
    n->next_ = nullptr;
    (tail_ != nullptr ? tail_->next_ : head_) = n;
    tail_ = n;
    ++size_;
  }

  /// Unlinks and returns the oldest node. Requires !empty().
  WaitNode* pop_front() {
    WaitNode* n = head_;
    remove(n);
    return n;
  }

 private:
  friend class WaitNode;

  void remove(WaitNode* n) {
    assert(n->list_ == this);
    (n->prev_ != nullptr ? n->prev_->next_ : head_) = n->next_;
    (n->next_ != nullptr ? n->next_->prev_ : tail_) = n->prev_;
    n->list_ = nullptr;
    n->prev_ = n->next_ = nullptr;
    --size_;
  }

  WaitNode* head_ = nullptr;
  WaitNode* tail_ = nullptr;
  std::size_t size_ = 0;
};

inline void WaitNode::unlink() {
  if (list_ != nullptr) list_->remove(this);
}

}  // namespace detail

class JoinAwaiter;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time.
  Time now() const noexcept { return now_; }

  // --- Actor management -----------------------------------------------

  /// Starts `body` as a new independent actor whose first resumption is
  /// queued at absolute time `start` (>= now). The actor is live from this
  /// call on; the returned id can be joined or killed.
  ActorId spawn_at(Time start, std::string name, Task<void> body);
  /// spawn_at() now.
  ActorId spawn(std::string name, Task<void> body) {
    return spawn_at(now_, std::move(name), std::move(body));
  }

  /// Destroys a live actor's coroutine chain and cancels its pending
  /// events. Safe to call from within any actor (including itself; the
  /// teardown is deferred until the current resume step unwinds).
  /// Returns false if the actor is unknown or already finished.
  bool kill(ActorId id);

  bool is_live(ActorId id) const { return find_actor(id) != kNoSlot; }
  /// The slab slot a live actor occupies, or nullopt. A finished actor's
  /// slot goes to a later one, so a layer that keeps per-actor rows in a
  /// vector indexed by slot stores the id in the row and checks it (as
  /// os::Machine's process table does).
  std::optional<std::uint32_t> actor_slot(ActorId id) const {
    const std::uint32_t slot = find_actor(id);
    if (slot == kNoSlot) return std::nullopt;
    return slot;
  }
  std::size_t live_actor_count() const noexcept { return live_actors_; }
  const std::string* actor_name(ActorId id) const;

  /// The actor currently being resumed (0 outside a resume step). Lets
  /// higher layers attribute side effects (e.g. process parentage) to the
  /// acting simulated process.
  ActorId running_actor() const noexcept { return running_actor_; }

  /// Awaitable that completes when the given actor finishes or is killed.
  /// An uncaught exception in any actor is reported by check_failures()
  /// (called from run()), not through join.
  inline JoinAwaiter join(ActorId id);

  // --- Event scheduling (used by awaitables and timers) ----------------

  /// Queues a coroutine resumption at absolute time `t` (>= now). The
  /// resumption is dropped if its actor has been killed by then.
  void schedule(Time t, Resumption r);

  /// Parks `joiner` (its resume set) until actor `id` terminates; joiners
  /// wake in the order they joined. Exposed for the join awaitable;
  /// requires the actor to be live.
  void add_joiner(ActorId id, detail::WaitNode* joiner);

  /// Queues a plain callback at absolute time `t`. Closures up to
  /// Callback::kInlineBytes are stored in the event slot without allocating.
  TimerHandle call_at(Time t, Callback fn);
  TimerHandle call_in(Duration d, Callback fn) {
    return call_at(now_ + d, std::move(fn));
  }

  // --- Running ----------------------------------------------------------

  /// Runs until the event queue is empty. Returns the final time.
  Time run();

  /// Runs until the queue is empty or simulated time would exceed `limit`;
  /// the clock is left at min(limit, time of last executed event).
  Time run_until(Time limit);

  /// Total events executed (skipped-cancelled events are not counted).
  std::uint64_t events_executed() const noexcept { return events_executed_; }

  /// If any actor terminated with an exception nobody joined, rethrows the
  /// first such exception. run()/run_until() call this automatically.
  void check_failures();

  /// Destroys every live actor (in ascending id order) and drops all
  /// pending events. Higher layers whose objects are referenced from actor
  /// frames (e.g. a Machine's network) call this from their destructors so
  /// frame teardown runs while those objects are still alive.
  void shutdown();

  /// Registers a lifecycle observer; every registered observer is notified
  /// in registration order. The observer must stay registered only while it
  /// is alive — prefer ScopedObserver, which cannot dangle. shutdown() does
  /// not notify. Double registration is an error (asserted).
  void add_observer(EngineObserver* observer);

  /// Unregisters a previously added observer; unknown pointers are ignored
  /// so teardown paths can remove unconditionally.
  void remove_observer(EngineObserver* observer);

  std::size_t observer_count() const noexcept { return observers_.size(); }

  // --- Observability of the event core ----------------------------------

  /// Event slots currently allocated: scheduled-and-not-yet-fired events.
  /// Cancelled timers leave immediately; resumptions of a dead actor are
  /// counted until they surface at the heap top or a compaction sweeps
  /// them.
  std::size_t pending_events() const noexcept { return live_slots_; }
  /// Timers cancelled before firing (their closures were released eagerly).
  std::uint64_t cancelled_events() const noexcept { return cancelled_events_; }
  /// Lazy-deletion sweeps performed on the index heap.
  std::uint64_t compactions() const noexcept { return compactions_; }
  /// Raw index-heap entries, including not-yet-swept dead ones.
  std::size_t heap_size() const noexcept { return heap_.size(); }
  /// Most event slots ever allocated at once (slab high-water mark).
  std::size_t slab_high_water() const noexcept { return slots_.size(); }

  // --- Internal hooks for TimerHandle / Resumption (treat as private) ----

  /// Cancels a callback event if (slot, gen) still names it: releases the
  /// closure now and marks the heap entry dead for lazy removal.
  void cancel_event(std::uint32_t slot, std::uint32_t gen);
  /// Absolute fire time of a pending callback event, if (slot, gen) still
  /// names one. Read-only; used by TimerHandle::fire_time().
  std::optional<Time> event_time(std::uint32_t slot, std::uint32_t gen) const {
    if (slot >= slots_.size()) return std::nullopt;
    const EventSlot& s = slots_[slot];
    if (s.gen != gen || s.kind != EventSlot::kCallback) return std::nullopt;
    return s.at;
  }
  /// Epoch check: does (slot, gen) still name a live actor?
  bool actor_slot_live(std::uint32_t slot, std::uint32_t gen) const {
    return slot < actor_count_ && actor_at(slot).ctx.gen == gen;
  }

 private:
  friend void engine_actor_finished(Engine&, std::uint64_t, std::exception_ptr);

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Compact once at least this many known-dead entries have accumulated
  /// *and* they are at least half the heap.
  static constexpr std::size_t kCompactMin = 64;

  /// Slab cell for actors. The cell is the actor's context: `ctx.gen` is
  /// bumped when the occupant is destroyed, which atomically expires every
  /// Resumption created for it. A free cell has no root.
  struct ActorSlot {
    ActorContext ctx;
    std::uint32_t next_free = kNoSlot;
    std::string name;
    Task<void>::Handle root;
    detail::WaitList joiners;
  };
  /// Cells per slab chunk. Chunks are never moved or freed before the
  /// engine, so a context's address is fixed for the engine's life.
  static constexpr std::uint32_t kActorChunkBits = 8;
  static constexpr std::uint32_t kActorChunk = 1u << kActorChunkBits;

  /// Slab cell for events. Exactly one payload is meaningful per kind.
  /// `gen` is bumped when the slot is freed (fire, cancel, or sweep), which
  /// expires the heap index entry and any TimerHandle pointing here.
  struct EventSlot {
    enum Kind : std::uint8_t { kFree, kResume, kCallback };
    std::uint32_t gen = 0;
    Kind kind = kFree;
    std::uint32_t next_free = kNoSlot;
    // kResume payload:
    std::coroutine_handle<> handle{};
    ActorContext* ctx = nullptr;
    std::uint32_t actor_slot = 0;
    std::uint32_t actor_gen = 0;
    // kCallback payload:
    Callback fn;
    /// Absolute fire time, mirrored from the heap entry so event_time()
    /// can answer without searching the heap.
    Time at = 0;
  };

  /// What the priority queue actually sifts: 24 bytes, trivially copyable.
  struct HeapEntry {
    Time t = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  /// Max-heap comparator inverted into a min-heap on (time, seq): FIFO
  /// among equal times — the same total order as the seed implementation.
  struct HeapLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  std::uint32_t alloc_event_slot();
  void free_event_slot(std::uint32_t slot);
  void push_entry(Time t, std::uint32_t slot);
  void pop_top();
  /// Removes every known-dead index entry (cancelled timers, resumptions of
  /// dead actors) and re-heapifies. Order-preserving: only entries the run
  /// loop would skip are removed.
  void compact_heap();
  void maybe_compact() {
    if (dead_entries_ >= kCompactMin && dead_entries_ * 2 >= heap_.size()) {
      compact_heap();
    }
  }

  ActorSlot& actor_at(std::uint32_t slot) {
    return actor_chunks_[slot >> kActorChunkBits][slot & (kActorChunk - 1)];
  }
  const ActorSlot& actor_at(std::uint32_t slot) const {
    return actor_chunks_[slot >> kActorChunkBits][slot & (kActorChunk - 1)];
  }
  std::uint32_t alloc_actor_slot();
  /// The live actor index: open addressing with linear probing over
  /// actor_index_, whose cells hold slab slots (kNoSlot = empty) and are
  /// keyed by the slot's ctx.id. At most half full, so it is sized by the
  /// live actors, not by every id ever issued.
  std::size_t index_home(ActorId id) const;
  std::uint32_t find_actor(ActorId id) const;  // kNoSlot if not live
  void index_insert(std::uint32_t slot);
  void index_erase(ActorId id);
  void dispatch(std::uint32_t slot);
  void reap_finished_and_killed();
  void destroy_actor_slot(std::uint32_t slot, std::exception_ptr error);

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_executed_ = 0;
  ActorId next_actor_id_ = 1;
  ActorId running_actor_ = 0;  // 0 = none

  // Event core: index heap over the slab.
  std::vector<HeapEntry> heap_;
  std::vector<EventSlot> slots_;
  std::uint32_t free_events_ = kNoSlot;
  std::size_t live_slots_ = 0;
  /// Known-dead entries still in heap_ (from cancel_event); resumptions of
  /// dead actors are discovered lazily and not counted here.
  std::size_t dead_entries_ = 0;
  std::uint64_t cancelled_events_ = 0;
  std::uint64_t compactions_ = 0;

  // Actor slab + public-id index (ids are never reused).
  std::vector<std::unique_ptr<ActorSlot[]>> actor_chunks_;
  std::uint32_t actor_count_ = 0;  // cells handed out so far (high water)
  std::uint32_t free_actors_ = kNoSlot;
  std::vector<std::uint32_t> actor_index_;
  unsigned index_shift_ = 0;  // 64 - log2(index size); set when it grows
  std::size_t live_actors_ = 0;

  // Actors whose root completed during the current dispatch, plus the error
  // (if any) their body ended with; reaped after the dispatch unwinds.
  std::vector<std::pair<ActorId, std::exception_ptr>> finished_;
  std::vector<ActorId> deferred_kills_;
  std::vector<std::exception_ptr> unhandled_errors_;
  // Registered lifecycle observers, notified in registration order. Index
  // loop (not iterators) in the notify paths: an observer may add/remove
  // observers from inside a callback.
  std::vector<EngineObserver*> observers_;
  bool in_shutdown_ = false;
};

/// RAII observer registration: adds on construction, removes on
/// destruction, so the observer can never outlive its registration window
/// (the dangling-pointer footgun of manual attach/detach pairs).
class ScopedObserver {
 public:
  ScopedObserver(Engine& engine, EngineObserver& observer)
      : engine_(&engine), observer_(&observer) {
    engine_->add_observer(observer_);
  }
  ScopedObserver(const ScopedObserver&) = delete;
  ScopedObserver& operator=(const ScopedObserver&) = delete;
  ~ScopedObserver() { engine_->remove_observer(observer_); }

 private:
  Engine* engine_;
  EngineObserver* observer_;
};

inline void TimerHandle::cancel() {
  if (engine_) engine_->cancel_event(slot_, gen_);
}

inline std::optional<Time> TimerHandle::fire_time() const {
  if (!engine_) return std::nullopt;
  return engine_->event_time(slot_, gen_);
}

inline bool Resumption::expired() const {
  return engine == nullptr || !engine->actor_slot_live(actor_slot, actor_gen);
}

/// Awaiter of join(), and the joiner's node in the joined actor's FIFO: it
/// lives in the suspended frame, so a join allocates nothing, and a joiner
/// killed while parked unlinks itself and is never resumed.
class JoinAwaiter : public detail::WaitNode {
 public:
  JoinAwaiter(Engine* engine, ActorId id) : engine_(engine), id_(id) {}
  bool await_ready() const { return !engine_->is_live(id_); }
  template <typename Promise>
  void await_suspend(std::coroutine_handle<Promise> h) {
    resume = Resumption::of(h, h.promise().context());
    engine_->add_joiner(id_, this);
  }
  void await_resume() const noexcept {}

 private:
  Engine* engine_;
  ActorId id_;
};

inline JoinAwaiter Engine::join(ActorId id) { return JoinAwaiter(this, id); }

// --- Basic awaitables ---------------------------------------------------

/// `co_await delay(d)`: resume the current coroutine after `d` simulated
/// time. `delay(0)` yields through the event queue (a fair "yield").
struct Delay {
  Duration d;
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  void await_suspend(std::coroutine_handle<Promise> h) const {
    ActorContext* ctx = h.promise().context();
    ctx->engine->schedule(ctx->engine->now() + d, Resumption::of(h, ctx));
  }
  void await_resume() const noexcept {}
};

inline Delay delay(Duration d) { return Delay{d}; }
inline Delay yield() { return Delay{0}; }

/// `co_await current_context()`: gives a coroutine access to its own actor
/// context (engine pointer, actor id, cancellation token).
struct CurrentContext {
  ActorContext* ctx = nullptr;
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  bool await_suspend(std::coroutine_handle<Promise> h) {
    ctx = h.promise().context();
    return false;  // never actually suspend
  }
  ActorContext* await_resume() const noexcept { return ctx; }
};

inline CurrentContext current_context() { return {}; }

}  // namespace jets::sim
