// Rank-side PMI client.
//
// Each MPI process talks PMI to the mpiexec control service: it announces
// itself, publishes/fetches KVS entries, and participates in PMI barriers.
// (In MPICH's Hydra the proxy multiplexes these messages for its local
// ranks; here each rank opens its own control connection — an explicitly
// documented simplification that preserves message counts and latency
// characteristics, since proxy and rank share a node.)
#pragma once

#include <coroutine>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "net/rpc.hh"
#include "net/socket.hh"
#include "obs/span.hh"
#include "obs/tracer.hh"
#include "os/machine.hh"
#include "sim/task.hh"

namespace jets::pmi {

class PmiClient {
 public:
  /// Connects to the mpiexec control service and registers rank `rank`.
  static sim::Task<std::unique_ptr<PmiClient>> connect(os::Machine& machine,
                                                       os::NodeId node,
                                                       net::Address control,
                                                       int rank, int size);

  int rank() const { return rank_; }
  int size() const { return size_; }

  /// Awaiter of one PMI call (get(), barrier()): the channel call's own
  /// coroutine frame is the only one, its reply is unwrapped, and a lost
  /// connection to mpiexec throws std::runtime_error. It owns the call's
  /// trace span, which ends when the await does.
  template <typename Resp>
  class [[nodiscard]] Call {
   public:
    using Result = net::rpc::Expected<Resp, net::rpc::RpcError>;
    Call(sim::Task<Result> call, obs::ScopedSpan span)
        : call_(std::move(call)), span_(std::move(span)) {}
    bool await_ready() const noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) {
      return std::move(call_).operator co_await().await_suspend(h);
    }
    /// The fetched value for a get(); nothing for a barrier().
    auto await_resume() {
      Result r = std::move(call_).operator co_await().await_resume();
      if (!r.ok()) throw std::runtime_error("PMI: lost connection to mpiexec");
      if constexpr (std::is_same_v<Resp, net::rpc::PmiValue>) {
        return std::move(r.value().value);
      }
    }

   private:
    sim::Task<Result> call_;
    obs::ScopedSpan span_;
  };

  /// Publishes a key into the job's KVS (asynchronous, FIFO-ordered).
  void put(const std::string& key, const std::string& value);

  /// Fetches a key, blocking until some rank publishes it.
  Call<net::rpc::PmiValue> get(const std::string& key) {
    // Interleaved barrier_out or stale value replies route through the
    // channel's correlation scan and drop as orphans — the defensive
    // skips the hand-written receive loop used to make.
    return {chan_.call(net::rpc::PmiGet{key}), obs::ScopedSpan()};
  }

  /// PMI barrier across all ranks of the job.
  Call<net::rpc::PmiBarrierOut> barrier() {
    obs::ScopedSpan span(tracer_, "pmi.barrier", track_);
    span.attr("rank", static_cast<std::int64_t>(rank_));
    return {chan_.call(net::rpc::PmiBarrier{rank_}), std::move(span)};
  }

  /// Reports clean completion of this rank to the process manager.
  void finalize();

  /// The control connection itself; ranks also route their stdout over it
  /// (app -> proxy -> mpiexec, §6.1.6).
  const net::SocketPtr& socket() const { return chan_.socket(); }

 private:
  PmiClient(sim::Engine& engine, net::SocketPtr sock, int rank, int size)
      : chan_(engine, std::move(sock)), rank_(rank), size_(size) {}

  /// Typed call layer over the control socket, in pump mode (no serve
  /// loop: the client is strictly sequential, so each call() drains the
  /// socket itself). One-way sends stay rpc::post() on the bare socket —
  /// they must schedule their flush event even after mpiexec dies, as the
  /// raw send always did.
  net::rpc::Channel chan_;
  int rank_;
  int size_;
  /// Captured at connect() (barrier() has no machine in scope): the
  /// machine's tracer, or nullptr, plus the per-node track PMI-phase spans
  /// ("pmi.connect", "pmi.barrier") are recorded on.
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t track_ = 0;
};

}  // namespace jets::pmi
