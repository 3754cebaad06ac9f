#include "swift/engine.hh"

#include <stdexcept>

namespace jets::swift {

using State = detail::Statement::State;

void DataVar::set() {
  if (set_) {
    throw std::logic_error("double assignment of dataflow variable " + path_);
  }
  set_ = true;
  // One activation per parked statement, oldest first: the events a gate
  // would queue for its waiters.
  while (detail::Statement* st = head_) {
    unpark(*st);
    st->owner->queue_activation(*st);
  }
}

void DataVar::park(detail::Statement& st) {
  st.state = State::kParked;
  st.prev = tail_;
  st.next = nullptr;
  (tail_ != nullptr ? tail_->next : head_) = &st;
  tail_ = &st;
}

void DataVar::unpark(detail::Statement& st) {
  (st.prev != nullptr ? st.prev->next : head_) = st.next;
  (st.next != nullptr ? st.next->prev : tail_) = st.prev;
  st.prev = st.next = nullptr;
}

SwiftEngine::SwiftEngine(os::Machine& machine, CoasterService& coasters,
                         Config config)
    : machine_(&machine), coasters_(&coasters), config_(config),
      all_done_(std::make_unique<sim::Gate>(machine.engine())) {}

SwiftEngine::SwiftEngine(os::Machine& machine, CoasterService& coasters)
    : SwiftEngine(machine, coasters, Config{}) {}

SwiftEngine::~SwiftEngine() {
  for (std::size_t i = 0; i < used_; ++i) {
    detail::Statement& st = chunks_[i / kChunk][i % kChunk];
    if (st.state == State::kQueued) st.activation.cancel();
    if (st.state == State::kParked) st.call.inputs[st.next_input]->unpark(st);
    if (st.state == State::kStarted) machine_->engine().kill(st.actor);
  }
}

void SwiftEngine::app(AppCall call) {
  ++registered_;
  all_done_->close();
  detail::Statement* st = free_;
  if (st != nullptr) {
    free_ = st->next;
  } else {
    if (used_ % kChunk == 0) {
      chunks_.push_back(std::make_unique<detail::Statement[]>(kChunk));
    }
    st = &chunks_[used_ / kChunk][used_ % kChunk];
    ++used_;
  }
  st->call = std::move(call);
  st->owner = this;
  st->next_input = 0;
  queue_activation(*st);
}

void SwiftEngine::queue_activation(detail::Statement& st) {
  sim::Engine& engine = machine_->engine();
  st.state = State::kQueued;
  st.activation = engine.call_at(engine.now(), [this, &st] { activate(st); });
}

void SwiftEngine::activate(detail::Statement& st) {
  const std::vector<DataPtr>& inputs = st.call.inputs;
  for (; st.next_input < inputs.size(); ++st.next_input) {
    DataVar& var = *inputs[st.next_input];
    if (!var.is_set()) {
      var.park(st);
      return;
    }
  }
  // Every input is set: the statement becomes an actor, which starts after
  // Swift's per-app dataflow and wrapper cost.
  sim::Engine& engine = machine_->engine();
  st.state = State::kStarted;
  st.actor = engine.spawn_at(engine.now() + config_.submit_overhead,
                             "swift-stmt", statement_actor(st));
}

void SwiftEngine::note_settled() {
  if (failed_ > 0 || completed_ + failed_ == registered_) {
    all_done_->open();
  }
}

sim::Task<void> SwiftEngine::statement_actor(detail::Statement& st) {
  AppCall& call = st.call;
  bool ok = true;
  if (call.run_on_login) {
    // Filesystem-bound helper executed directly on the login node; it
    // touches the mapped files on the shared filesystem.
    co_await sim::delay(call.login_cost);
    for (const DataPtr& out : call.outputs) {
      co_await machine_->shared_fs().write(out->path(), out->bytes());
    }
  } else {
    core::JobSpec spec;
    spec.argv = std::move(call.argv);
    if (call.mpi) {
      spec.kind = core::JobKind::kMpi;
      spec.nprocs = call.nprocs;
      spec.ppn = call.ppn;
    }
    core::JobRecord rec = co_await coasters_->run_job(std::move(spec));
    ok = rec.status == core::JobStatus::kDone;
    records_.push_back(std::move(rec));
  }

  if (ok) {
    for (const DataPtr& out : call.outputs) out->set();
    ++completed_;
  } else {
    ++failed_;
  }
  st.call = AppCall{};
  st.state = State::kFree;
  st.next = free_;
  free_ = &st;
  note_settled();
}

sim::Task<void> SwiftEngine::run_to_completion() {
  note_settled();
  co_await all_done_->wait();
}

}  // namespace jets::swift
