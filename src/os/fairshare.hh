// Processor-sharing bandwidth server.
//
// Models a contended resource (GPFS server bandwidth, an I/O link) where k
// concurrent transfers each progress at rate B/k. This is the egalitarian
// processor-sharing queue; it is simulated exactly using a virtual-service
// clock V(t) with dV/dt = B / n(t): a transfer of s bytes admitted when the
// clock reads V0 completes when V(t) = V0 + s.
//
// The GPFS contention this models is what drives two of the paper's
// observations: utilization loss from "simultaneous small-file accesses"
// in single-process REM runs (§6.2.2), and the benefit of staging binaries
// to node-local storage (§6.1.4).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace jets::os {

class FairShareServer {
 public:
  /// `bytes_per_second`: aggregate capacity shared by all active transfers.
  FairShareServer(sim::Engine& engine, double bytes_per_second)
      : engine_(&engine), bps_(bytes_per_second) {}
  FairShareServer(const FairShareServer&) = delete;
  FairShareServer& operator=(const FairShareServer&) = delete;

  /// Awaiter of transfer(): admits the transfer when the caller suspends
  /// and resumes it once its share has moved every byte.
  struct TransferAwaiter {
    FairShareServer* server;
    std::uint64_t bytes;
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> h) {
      server->admit(bytes, sim::Resumption::of(h, h.promise().context()));
    }
    void await_resume() const noexcept {}
  };

  /// `co_await transfer(bytes)`: moves `bytes` through the shared server;
  /// completes after this transfer's fair share of bandwidth has moved all
  /// bytes. A caller killed mid-transfer keeps its share until the
  /// transfer's deadline, as an abandoned read keeps the servers busy.
  TransferAwaiter transfer(std::uint64_t bytes) { return {this, bytes}; }

  std::size_t active_transfers() const { return transfers_.size(); }
  double bytes_per_second() const { return bps_; }

 private:
  /// A transfer in flight. The server owns it, not the caller's frame, so
  /// a killed caller's transfer stays in the share until its deadline.
  struct Transfer {
    double virtual_deadline;  // V value at which this transfer completes
    std::uint64_t arrival;    // admission order, breaks deadline ties
    sim::Resumption caller;   // expired once the caller's actor is gone
  };
  /// Min-heap order on (virtual_deadline, arrival).
  struct Later {
    bool operator()(const Transfer& a, const Transfer& b) const {
      if (a.virtual_deadline != b.virtual_deadline) {
        return a.virtual_deadline > b.virtual_deadline;
      }
      return a.arrival > b.arrival;
    }
  };

  void admit(std::uint64_t bytes, sim::Resumption caller);
  /// Advances V(t) to `now` and (re)schedules the next completion timer.
  void advance_clock();
  void schedule_next_completion();
  void complete_due_transfers();

  sim::Engine* engine_;
  double bps_;
  double virtual_clock_ = 0.0;  // total service delivered per active stream
  sim::Time clock_updated_at_ = 0;
  std::uint64_t arrivals_ = 0;
  /// Binary heap (Later), so the next completion is front(). Its capacity
  /// is kept, so a warm server admits and completes without allocating.
  std::vector<Transfer> transfers_;
  sim::TimerHandle pending_timer_;
};

}  // namespace jets::os
