#include "swift/engine.hh"

namespace jets::swift {

SwiftEngine::SwiftEngine(os::Machine& machine, CoasterService& coasters,
                         Config config)
    : machine_(&machine), coasters_(&coasters), config_(config),
      all_done_(std::make_unique<sim::Gate>(machine.engine())) {}

SwiftEngine::SwiftEngine(os::Machine& machine, CoasterService& coasters)
    : SwiftEngine(machine, coasters, Config{}) {}

void SwiftEngine::app(AppCall call) {
  ++registered_;
  all_done_->close();
  machine_->engine().spawn("swift-stmt", statement_actor(std::move(call)));
}

void SwiftEngine::note_settled() {
  if (failed_ > 0 || completed_ + failed_ == registered_) {
    all_done_->open();
  }
}

sim::Task<void> SwiftEngine::statement_actor(AppCall call) {
  // Dataflow: block until every input variable has been assigned.
  for (const DataPtr& in : call.inputs) {
    co_await in->wait();
  }
  co_await sim::delay(config_.submit_overhead);

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
  note_settled();
}

sim::Task<void> SwiftEngine::run_to_completion() {
  note_settled();
  co_await all_done_->wait();
}

}  // namespace jets::swift
