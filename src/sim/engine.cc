#include "sim/engine.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace jets::sim {

void engine_actor_finished(Engine& engine, std::uint64_t actor_id,
                           std::exception_ptr error) {
  engine.finished_.emplace_back(actor_id, std::move(error));
}

Engine::~Engine() { shutdown(); }

// --- Observers ----------------------------------------------------------

void Engine::add_observer(EngineObserver* observer) {
  assert(observer != nullptr);
  assert(std::find(observers_.begin(), observers_.end(), observer) ==
         observers_.end());
  observers_.push_back(observer);
}

void Engine::remove_observer(EngineObserver* observer) {
  auto it = std::find(observers_.begin(), observers_.end(), observer);
  if (it != observers_.end()) observers_.erase(it);
}

// --- Event slab --------------------------------------------------------

std::uint32_t Engine::alloc_event_slot() {
  std::uint32_t slot;
  if (free_events_ != kNoSlot) {
    slot = free_events_;
    free_events_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  ++live_slots_;
  return slot;
}

void Engine::free_event_slot(std::uint32_t slot) {
  EventSlot& s = slots_[slot];
  assert(s.kind != EventSlot::kFree);
  // Move the closure out before touching slab metadata: its destructor may
  // call back into the engine (cancel other timers, even allocate slots),
  // so it must run against a consistent slab — after this slot is free.
  Callback doomed = std::move(s.fn);
  s.handle = {};
  s.ctx = nullptr;
  s.kind = EventSlot::kFree;
  ++s.gen;  // expire the heap index entry and any TimerHandle copies
  s.next_free = free_events_;
  free_events_ = slot;
  --live_slots_;
  // `doomed` (the cancelled/fired closure) is destroyed here, eagerly.
}

void Engine::push_entry(Time t, std::uint32_t slot) {
  slots_[slot].at = t;
  heap_.push_back(HeapEntry{t, seq_++, slot, slots_[slot].gen});
  std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
}

void Engine::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
  heap_.pop_back();
}

void Engine::compact_heap() {
  // Lazy-deletion sweep: drop every entry the run loop would skip anyway
  // (generation-mismatched, i.e. cancelled, plus resumptions whose actor is
  // gone — those also give their slot back). Rebuilding the heap afterwards
  // cannot reorder execution: pop order is fully determined by (t, seq).
  auto is_dead = [this](const HeapEntry& e) {
    EventSlot& s = slots_[e.slot];
    if (s.gen != e.gen) return true;
    if (s.kind == EventSlot::kResume &&
        !actor_slot_live(s.actor_slot, s.actor_gen)) {
      free_event_slot(e.slot);
      return true;
    }
    return false;
  };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), is_dead), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), HeapLater{});
  dead_entries_ = 0;
  ++compactions_;
}

// --- Scheduling --------------------------------------------------------

void Engine::schedule(Time t, Resumption r) {
  assert(t >= now_);
  const std::uint32_t slot = alloc_event_slot();
  EventSlot& s = slots_[slot];
  s.kind = EventSlot::kResume;
  s.handle = r.handle;
  s.ctx = r.ctx;
  s.actor_slot = r.actor_slot;
  s.actor_gen = r.actor_gen;
  push_entry(t, slot);
}

TimerHandle Engine::call_at(Time t, Callback fn) {
  assert(t >= now_);
  const std::uint32_t slot = alloc_event_slot();
  EventSlot& s = slots_[slot];
  s.kind = EventSlot::kCallback;
  s.fn = std::move(fn);
  push_entry(t, slot);
  return TimerHandle(this, slot, s.gen);
}

void Engine::cancel_event(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= slots_.size() || slots_[slot].gen != gen) return;  // already gone
  assert(slots_[slot].kind == EventSlot::kCallback);
  ++cancelled_events_;
  ++dead_entries_;  // the index entry stays behind for lazy removal
  free_event_slot(slot);
  maybe_compact();
}

// --- Actors ------------------------------------------------------------

std::uint32_t Engine::alloc_actor_slot() {
  if (free_actors_ != kNoSlot) {
    const std::uint32_t slot = free_actors_;
    free_actors_ = actor_at(slot).next_free;
    return slot;
  }
  const std::uint32_t slot = actor_count_++;
  if ((slot & (kActorChunk - 1)) == 0) {
    actor_chunks_.push_back(std::make_unique<ActorSlot[]>(kActorChunk));
  }
  ActorSlot& as = actor_at(slot);
  as.ctx.engine = this;
  as.ctx.slot = slot;
  return slot;
}

std::size_t Engine::index_home(ActorId id) const {
  // Fibonacci hashing: dense ids spread over the whole table.
  return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ull) >> index_shift_);
}

std::uint32_t Engine::find_actor(ActorId id) const {
  if (live_actors_ == 0) return kNoSlot;
  const std::size_t mask = actor_index_.size() - 1;
  for (std::size_t i = index_home(id);; i = (i + 1) & mask) {
    const std::uint32_t slot = actor_index_[i];
    if (slot == kNoSlot || actor_at(slot).ctx.id == id) return slot;
  }
}

void Engine::index_insert(std::uint32_t slot) {
  if (2 * (live_actors_ + 1) > actor_index_.size()) {
    // Grow (and rehash) to keep the table at most half full.
    std::vector<std::uint32_t> old = std::move(actor_index_);
    const std::size_t size = std::max<std::size_t>(16, 2 * old.size());
    actor_index_.assign(size, kNoSlot);
    index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
    live_actors_ = 0;
    for (const std::uint32_t s : old) {
      if (s != kNoSlot) index_insert(s);
    }
  }
  const std::size_t mask = actor_index_.size() - 1;
  std::size_t i = index_home(actor_at(slot).ctx.id);
  while (actor_index_[i] != kNoSlot) i = (i + 1) & mask;
  actor_index_[i] = slot;
  ++live_actors_;
}

void Engine::index_erase(ActorId id) {
  const std::size_t mask = actor_index_.size() - 1;
  std::size_t hole = index_home(id);
  while (actor_at(actor_index_[hole]).ctx.id != id) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home lies cyclically after the hole, so lookups
  // never need tombstones.
  for (std::size_t j = (hole + 1) & mask; actor_index_[j] != kNoSlot;
       j = (j + 1) & mask) {
    const std::size_t home = index_home(actor_at(actor_index_[j]).ctx.id);
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (stays) continue;
    actor_index_[hole] = actor_index_[j];
    hole = j;
  }
  actor_index_[hole] = kNoSlot;
  --live_actors_;
}

ActorId Engine::spawn_at(Time start, std::string name, Task<void> body) {
  if (!body.valid()) throw std::invalid_argument("spawn: empty task");
  const ActorId id = next_actor_id_++;
  const std::uint32_t slot = alloc_actor_slot();
  ActorSlot& as = actor_at(slot);
  as.ctx.id = id;
  as.name = std::move(name);
  as.root = body.release();
  as.root.promise().set_context(&as.ctx);
  schedule(start, Resumption::of(as.root, &as.ctx));
  for (std::size_t i = 0; i < observers_.size(); ++i) {
    observers_[i]->on_spawn(now_, id, as.name);
  }
  index_insert(slot);
  return id;
}

bool Engine::kill(ActorId id) {
  const std::uint32_t slot = find_actor(id);
  if (slot == kNoSlot) return false;
  if (running_actor_ == id) {
    // Cannot destroy the frame we are currently executing inside; reap
    // after the current dispatch unwinds. The generation bump happens at
    // destruction, before any later event could be dispatched, so events
    // the actor schedules in its remaining steps still die unexecuted.
    deferred_kills_.push_back(id);
    return true;
  }
  destroy_actor_slot(slot, nullptr);
  return true;
}

const std::string* Engine::actor_name(ActorId id) const {
  const std::uint32_t slot = find_actor(id);
  return slot == kNoSlot ? nullptr : &actor_at(slot).name;
}

void Engine::add_joiner(ActorId id, detail::WaitNode* joiner) {
  const std::uint32_t slot = find_actor(id);
  assert(slot != kNoSlot);
  actor_at(slot).joiners.push_back(joiner);
}

void Engine::reap_finished_and_killed() {
  while (!finished_.empty() || !deferred_kills_.empty()) {
    if (!finished_.empty()) {
      auto [id, error] = std::move(finished_.back());
      finished_.pop_back();
      const std::uint32_t slot = find_actor(id);
      if (slot != kNoSlot) destroy_actor_slot(slot, std::move(error));
    } else {
      ActorId id = deferred_kills_.back();
      deferred_kills_.pop_back();
      const std::uint32_t slot = find_actor(id);
      if (slot != kNoSlot) destroy_actor_slot(slot, nullptr);
    }
  }
}

void Engine::destroy_actor_slot(std::uint32_t slot, std::exception_ptr error) {
  ActorSlot& as = actor_at(slot);
  const ActorId id = as.ctx.id;
  const std::string name = std::move(as.name);
  const Task<void>::Handle root = std::exchange(as.root, nullptr);
  index_erase(id);
  ++as.ctx.gen;  // expire every pending resumption for this actor at once
  // Wake the joiners (in join order) before the cell can be reused; in
  // shutdown they are only detached, their frames die next.
  while (!as.joiners.empty()) {
    detail::WaitNode* joiner = as.joiners.pop_front();
    if (!in_shutdown_) schedule(now_, joiner->resume);
  }
  as.next_free = free_actors_;
  free_actors_ = slot;
  if (!in_shutdown_) {
    // Finished actors arrive via the finished_ list; everything else
    // reaching here directly is a kill.
    const bool finished = root.done();
    for (std::size_t i = 0; i < observers_.size(); ++i) {
      if (finished) {
        observers_[i]->on_finish(now_, id, name);
      } else {
        observers_[i]->on_kill(now_, id, name);
      }
    }
  }
  if (error) unhandled_errors_.push_back(error);
  root.destroy();
}

// --- Run loop ----------------------------------------------------------

void Engine::dispatch(std::uint32_t slot) {
  EventSlot& s = slots_[slot];
  if (s.kind == EventSlot::kResume) {
    // Copy the payload out and free the slot *before* resuming: the resumed
    // coroutine may schedule, cancel, or trigger a compaction (all of which
    // may touch or even reallocate the slab).
    std::coroutine_handle<> h = s.handle;
    ActorContext* ctx = s.ctx;
    free_event_slot(slot);
    ++events_executed_;
    running_actor_ = ctx->id;
    h.resume();
    running_actor_ = 0;
  } else {
    Callback fn = std::move(s.fn);
    free_event_slot(slot);
    ++events_executed_;
    fn();
  }
  reap_finished_and_killed();
}

Time Engine::run() { return run_until(kTimeInfinity); }

Time Engine::run_until(Time limit) {
  while (!heap_.empty()) {
    // Dead events (killed actor, cancelled timer) are dropped without
    // advancing the clock: a run's end time reflects work that actually
    // happened, not ghosts of cancelled timeouts.
    {
      const HeapEntry& top = heap_.front();
      EventSlot& s = slots_[top.slot];
      if (s.gen != top.gen) {
        // Cancelled timer: the slot was already freed by cancel_event.
        --dead_entries_;
        pop_top();
        continue;
      }
      if (s.kind == EventSlot::kResume &&
          !actor_slot_live(s.actor_slot, s.actor_gen)) {
        free_event_slot(top.slot);
        pop_top();
        continue;
      }
    }
    if (heap_.front().t > limit) {
      now_ = limit;
      check_failures();
      return now_;
    }
    const Time t = heap_.front().t;
    const std::uint32_t slot = heap_.front().slot;
    pop_top();
    now_ = t;
    dispatch(slot);
  }
  check_failures();
  return now_;
}

void Engine::check_failures() {
  if (unhandled_errors_.empty()) return;
  std::exception_ptr first = unhandled_errors_.front();
  unhandled_errors_.clear();
  std::rethrow_exception(first);
}

void Engine::shutdown() {
  in_shutdown_ = true;
  // Destroy live actors in a defined order (ascending id) so coroutine-frame
  // destructors (which may close sockets etc.) run deterministically.
  std::vector<ActorId> ids;
  ids.reserve(live_actors_);
  for (std::uint32_t slot = 0; slot < actor_count_; ++slot) {
    if (actor_at(slot).root) ids.push_back(actor_at(slot).ctx.id);
  }
  std::sort(ids.begin(), ids.end());
  for (ActorId id : ids) {
    const std::uint32_t slot = find_actor(id);
    if (slot != kNoSlot) destroy_actor_slot(slot, nullptr);
  }
  // Drop all pending events. Slots are freed (closures destroyed) but the
  // slab itself is kept, so generations persist and a late TimerHandle
  // cancel() remains a harmless generation mismatch.
  for (const HeapEntry& e : heap_) {
    if (slots_[e.slot].gen == e.gen) free_event_slot(e.slot);
  }
  heap_.clear();
  dead_entries_ = 0;
  finished_.clear();
  deferred_kills_.clear();
  in_shutdown_ = false;
}

}  // namespace jets::sim
