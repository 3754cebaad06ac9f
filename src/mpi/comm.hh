// Minimal MPI implementation over PMI + simulated sockets.
//
// Reproduces the subset the paper's workloads exercise: MPI_Init wire-up
// through the PMI key-value space (publish a connection card, fence, fetch
// peers on demand), point-to-point Send/Recv over per-pair socket
// connections, a dissemination Barrier, Wtime, and Finalize.
//
// Connection discipline: a sender always transmits on a connection *it*
// initiated; a receiver reads from the connection its peer initiated. Each
// socket therefore carries one direction of traffic, which sidesteps the
// simultaneous-connect race without locks. (MPICH multiplexes one duplex
// socket per pair; the timing difference is one extra connect RTT on the
// first reply, negligible against the ZeptoOS TCP stack cost modelled in
// the fabric.)
//
// The transport "mode" of Fig 8 (native DCMF vs MPICH/sockets) is selected
// by the machine's fabric model, exactly as on the real system where the
// same MPI program is compiled against a different messaging substrate.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/rpc.hh"
#include "net/socket.hh"
#include "os/machine.hh"
#include "os/program.hh"
#include "pmi/client.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace jets::mpi {

/// A received point-to-point message.
struct RecvResult {
  int source = -1;
  int tag = 0;
  std::size_t bytes = 0;
  /// Scalar payload carried alongside the (unsimulated) bulk bytes; used
  /// by the reduction collectives.
  double value = 0;
};

/// MPI_COMM_WORLD for one process. Construct with Comm::init from inside a
/// Hydra-launched program (Env::pmi must be set).
class Comm {
 public:
  ~Comm();
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  /// MPI_Init: binds this rank's endpoint, publishes its card in the PMI
  /// KVS, and fences so every rank is reachable before user code runs.
  static sim::Task<std::unique_ptr<Comm>> init(os::Env& env);

  int rank() const { return rank_; }
  int size() const { return size_; }

  /// MPI_Wtime: simulated seconds.
  double wtime() const;

  /// Awaitable of send(): the frame is already on the wire when the pair
  /// is wired (ready at once, no coroutine frame); otherwise it runs
  /// dial() and sends on resumption.
  class [[nodiscard]] SendOp {
   public:
    SendOp() = default;
    SendOp(sim::Task<net::Socket*> dialing, net::rpc::MpiMsg msg)
        : dialing_(std::move(dialing)), msg_(std::move(msg)) {}
    bool await_ready() const noexcept { return !dialing_.valid(); }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) {
      return std::move(dialing_).operator co_await().await_suspend(h);
    }
    void await_resume() {
      if (!dialing_.valid()) return;
      net::Socket* sock = std::move(dialing_).operator co_await().await_resume();
      net::rpc::post(*sock, std::move(msg_));
    }

   private:
    sim::Task<net::Socket*> dialing_;
    net::rpc::MpiMsg msg_;
  };

  /// Awaitable of recv(): on a wired pair it is the socket's own receive
  /// awaiter (no coroutine frame); otherwise it runs recv_wiring().
  class [[nodiscard]] RecvOp {
   public:
    RecvOp(Comm& comm, int src);
    bool await_ready() { return wire_ && wire_->await_ready(); }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) {
      if (wire_) {
        wire_->await_suspend(h);
        return std::noop_coroutine();
      }
      return std::move(wiring_).operator co_await().await_suspend(h);
    }
    RecvResult await_resume() {
      if (wire_) return comm_->unpack(src_, wire_->await_resume());
      return std::move(wiring_).operator co_await().await_resume();
    }

   private:
    Comm* comm_;
    int src_;
    std::optional<net::Socket::RecvAwaiter> wire_;
    sim::Task<RecvResult> wiring_;
  };

  /// Buffered (standard-mode) send of `bytes` to `dest`. `value` is an
  /// optional scalar payload surfaced, exactly, in the receiver's
  /// RecvResult. Throws std::invalid_argument if `dest` is not a rank of
  /// this communicator.
  SendOp send(int dest, std::size_t bytes, int tag = 0, double value = 0);

  /// Synchronous send: completes when the payload has left this endpoint.
  sim::Task<void> ssend(int dest, std::size_t bytes, int tag = 0);

  /// Blocking receive of the next message from `src`. Throws
  /// std::invalid_argument if `src` is not a rank of this communicator,
  /// std::runtime_error if the peer connection is lost first.
  RecvOp recv(int src);

  /// Dissemination barrier: ceil(log2(size)) rounds of pairwise messages.
  sim::Task<void> barrier();

  /// Binomial-tree broadcast of `bytes` from `root`; returns the byte
  /// count on every rank (payload contents are not simulated).
  sim::Task<std::size_t> bcast(std::size_t bytes, int root = 0);

  /// Binomial-tree reduction of a double with operator + toward `root`.
  /// Returns the reduced value on root, the partial on others.
  sim::Task<double> reduce_sum(double value, int root = 0);

  /// reduce + bcast: every rank gets the global sum.
  sim::Task<double> allreduce_sum(double value);

  /// MPI-IO-style collective write: every rank contributes
  /// `bytes_per_rank`; the data is aggregated to rank 0 over the
  /// interconnect and written to the shared filesystem as ONE client —
  /// the paper's §1.2 argument: "for 16-process MPTC tasks using MPI-IO,
  /// the number of clients would be N/16". Collective: all ranks must
  /// call it; returns on all ranks once the write is durable.
  sim::Task<void> write_all(const std::string& path, std::size_t bytes_per_rank);

  /// The MTC strawman: every rank writes its own chunk directly (size
  /// filesystem clients). Not collective; returns when this rank's chunk
  /// is durable.
  sim::Task<void> write_independent(const std::string& path,
                                    std::size_t bytes_per_rank);

  /// MPI_Finalize: fences via PMI and tears down connections.
  sim::Task<void> finalize();

 private:
  Comm(os::Env& env, int rank, int size);

  /// One peer this rank has wired up with, in either direction.
  struct Peer {
    int rank = -1;
    net::SocketPtr out;  // connection this rank dialed: carries its sends
    net::SocketPtr in;   // connection the peer dialed: carries its receives
  };

  Peer* find(int rank);
  Peer& peer(int rank);  // find-or-append
  /// The connection this rank dialed to `dest`, or null if not yet wired.
  net::Socket* wired_out(int dest);
  void check_rank(int r, const char* op) const;

  sim::Task<void> accept_loop();
  /// First send to `dest`: fetches its card through PMI, dials, says hello.
  sim::Task<net::Socket*> dial(int dest);
  /// First receive from `src`: waits for it to dial in, then receives.
  sim::Task<RecvResult> recv_wiring(int src);
  RecvResult unpack(int src, std::optional<net::Message> m);

  os::Env* env_;
  os::Machine* machine_;
  int rank_;
  int size_;
  net::Address self_addr_{};
  std::optional<net::Listener> listener_;
  sim::ActorId acceptor_ = 0;

  /// Every pair this rank has wired, in wiring order. It grows only as
  /// pairs wire (a dissemination barrier touches 2*log2(size) peers), so
  /// it is never sized to the communicator; lookups scan it.
  std::vector<Peer> peers_;
  /// Receives parked until their source dials in (source, waiter), woken
  /// in arrival order when it does.
  std::vector<std::pair<int, sim::Resumption>> parked_;
  bool finalized_ = false;
};

}  // namespace jets::mpi
