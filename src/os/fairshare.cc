#include "os/fairshare.hh"

#include <algorithm>

namespace jets::os {

void FairShareServer::advance_clock() {
  const sim::Time now = engine_->now();
  if (now > clock_updated_at_ && !transfers_.empty()) {
    const double dt = sim::to_seconds(now - clock_updated_at_);
    virtual_clock_ += dt * bps_ / static_cast<double>(transfers_.size());
  }
  clock_updated_at_ = now;
}

void FairShareServer::schedule_next_completion() {
  pending_timer_.cancel();
  if (transfers_.empty()) return;
  const double next_deadline = transfers_.front().virtual_deadline;
  const double remaining = std::max(0.0, next_deadline - virtual_clock_);
  const double real_seconds =
      remaining * static_cast<double>(transfers_.size()) / bps_;
  pending_timer_ = engine_->call_in(sim::from_seconds(real_seconds),
                                    [this] { complete_due_transfers(); });
}

void FairShareServer::complete_due_transfers() {
  advance_clock();
  // Numerical slack: anything within half a nanosecond of service is done.
  const double eps = bps_ * 0.5e-9;
  while (!transfers_.empty() &&
         transfers_.front().virtual_deadline <= virtual_clock_ + eps) {
    std::pop_heap(transfers_.begin(), transfers_.end(), Later{});
    const sim::Resumption& caller = transfers_.back().caller;
    if (!caller.expired()) engine_->schedule(engine_->now(), caller);
    transfers_.pop_back();
  }
  schedule_next_completion();
}

void FairShareServer::admit(std::uint64_t bytes, sim::Resumption caller) {
  advance_clock();
  transfers_.push_back(Transfer{virtual_clock_ + static_cast<double>(bytes),
                                arrivals_++, caller});
  std::push_heap(transfers_.begin(), transfers_.end(), Later{});
  schedule_next_completion();
}

}  // namespace jets::os
