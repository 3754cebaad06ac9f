#include "sim/engine.hh"

#include <algorithm>
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
  std::uint32_t slot;
  if (free_actors_ != kNoSlot) {
    slot = free_actors_;
    free_actors_ = actor_slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(actor_slots_.size());
    actor_slots_.emplace_back();
  }
  return slot;
}

ActorId Engine::spawn(std::string name, Task<void> body) {
  if (!body.valid()) throw std::invalid_argument("spawn: empty task");
  const ActorId id = next_actor_id_++;
  const std::uint32_t slot = alloc_actor_slot();
  ActorSlot& as = actor_slots_[slot];
  Actor& actor = as.actor.emplace();
  actor.id = id;
  actor.name = std::move(name);
  actor.ctx = std::make_unique<ActorContext>();
  actor.ctx->engine = this;
  actor.ctx->id = id;
  actor.ctx->slot = slot;
  actor.ctx->gen = as.gen;
  actor.root = body.release();
  actor.root.promise().set_context(actor.ctx.get());
  schedule(now_, Resumption::of(actor.root, actor.ctx.get()));
  for (std::size_t i = 0; i < observers_.size(); ++i) {
    observers_[i]->on_spawn(now_, id, actor.name);
  }
  id_to_slot_.emplace(id, slot);
  return id;
}

bool Engine::kill(ActorId id) {
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return false;
  if (running_actor_ == id) {
    // Cannot destroy the frame we are currently executing inside; reap
    // after the current dispatch unwinds. The generation bump happens at
    // destruction, before any later event could be dispatched, so events
    // the actor schedules in its remaining steps still die unexecuted.
    deferred_kills_.push_back(id);
    return true;
  }
  destroy_actor_slot(it->second, nullptr);
  return true;
}

const std::string* Engine::actor_name(ActorId id) const {
  auto it = id_to_slot_.find(id);
  return it == id_to_slot_.end() ? nullptr
                                 : &actor_slots_[it->second].actor->name;
}

void Engine::add_joiner(ActorId id, Resumption r) {
  actor_slots_[id_to_slot_.at(id)].actor->joiners.push_back(std::move(r));
}

void Engine::reap_finished_and_killed() {
  while (!finished_.empty() || !deferred_kills_.empty()) {
    if (!finished_.empty()) {
      auto [id, error] = std::move(finished_.back());
      finished_.pop_back();
      auto it = id_to_slot_.find(id);
      if (it != id_to_slot_.end()) destroy_actor_slot(it->second, std::move(error));
    } else {
      ActorId id = deferred_kills_.back();
      deferred_kills_.pop_back();
      auto it = id_to_slot_.find(id);
      if (it != id_to_slot_.end()) destroy_actor_slot(it->second, nullptr);
    }
  }
}

void Engine::destroy_actor_slot(std::uint32_t slot, std::exception_ptr error) {
  ActorSlot& as = actor_slots_[slot];
  Actor actor = std::move(*as.actor);
  as.actor.reset();
  ++as.gen;  // expire every pending resumption for this actor at once
  as.next_free = free_actors_;
  free_actors_ = slot;
  id_to_slot_.erase(actor.id);
  if (!in_shutdown_) {
    // Finished actors arrive via the finished_ list; everything else
    // reaching here directly is a kill.
    const bool finished = actor.root && actor.root.done();
    for (std::size_t i = 0; i < observers_.size(); ++i) {
      if (finished) {
        observers_[i]->on_finish(now_, actor.id, actor.name);
      } else {
        observers_[i]->on_kill(now_, actor.id, actor.name);
      }
    }
  }
  if (error) unhandled_errors_.push_back(error);
  if (!in_shutdown_) {
    for (Resumption& r : actor.joiners) {
      schedule(now_, std::move(r));
    }
  }
  if (actor.root) actor.root.destroy();
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
  ids.reserve(id_to_slot_.size());
  for (const auto& [id, _] : id_to_slot_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (ActorId id : ids) {
    auto it = id_to_slot_.find(id);
    if (it == id_to_slot_.end()) continue;
    destroy_actor_slot(it->second, nullptr);
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
