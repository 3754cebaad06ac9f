// TCP-like stream sockets over a simulated fabric.
//
// Semantics mirror what the JETS middleware relies on from real TCP:
//  * connection setup costs one round trip and fails if nobody listens;
//  * per-direction FIFO delivery with bandwidth-limited serialization;
//  * peer death or close() is *visible*: pending and future receives
//    complete with std::nullopt (EOF). The paper leans on this ("the
//    reliability characteristics offered by TCP-based APIs") for fault
//    tolerance — worker-kill tests exercise exactly this path.
//
// A connection is one heap block holding both endpoints and both
// directions. SocketPtr is a counted handle to one endpoint: when an
// endpoint's last handle drops (a killed process's coroutine frames drop
// theirs during teardown) it closes, so the remote side's recv() wakes
// with EOF just as a real peer reset would. The block itself lives until
// neither endpoint has a handle and no delivery is in flight.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/arena.hh"
#include "net/fabric.hh"
#include "net/message.hh"
#include "sim/engine.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace jets::net {

// 32-bit, not the TCP-real 16: ports are handed out by a machine-wide
// monotone counter (os::Machine::allocate_port), and a million-worker run
// makes far more than 2^16 dynamic binds — a 16-bit counter wraps back
// onto the service's well-known port. Values at paper scale are identical
// either way.
using Port = std::uint32_t;

struct Address {
  NodeId node = 0;
  Port port = 0;
  auto operator<=>(const Address&) const = default;
};

class Network;
class Socket;

/// Thrown by connect() when no listener is bound to the target address.
class ConnectError : public std::runtime_error {
 public:
  explicit ConnectError(Address to)
      : std::runtime_error("connection refused: node " +
                           std::to_string(to.node) + ":" +
                           std::to_string(to.port)) {}
};

namespace detail {

/// One direction of a connection: a delivery channel, the sender-side
/// wire clock that enforces FIFO bandwidth-limited delivery, and the FIFO
/// chain of in-flight messages parked in the network's arena.
struct Pipe {
  Pipe(sim::Engine& engine, MessageArena* arena)
      : inbox(engine), engine(&engine), arena(arena) {}
  ~Pipe() {
    // Frees messages whose delivery events never fired (simulation ended
    // or connection torn down mid-flight). The owning Connection keeps the
    // arena alive until after its pipes are gone.
    while (pending_head != MessageArena::kNil) {
      const std::uint32_t idx = pending_head;
      pending_head = arena->slot(idx).next;
      arena->release(idx);
    }
  }

  /// Parks a message for delivery at `due` (due times are monotone per
  /// pipe: the wire clock only moves forward and stalls only extend).
  void park(Message&& m, sim::Time due) {
    const std::uint32_t idx = arena->acquire(std::move(m), due);
    if (pending_tail == MessageArena::kNil) {
      pending_head = idx;
    } else {
      arena->slot(pending_tail).next = idx;
    }
    pending_tail = idx;
  }

  /// Delivers every parked message that is due. Each send schedules one
  /// engine event at its own delivery instant (preserving the event
  /// heap's (time, seq) layout exactly), but the earliest event of a
  /// same-instant burst drains the whole batch and the rest find an empty
  /// chain.
  void flush() {
    const sim::Time now = engine->now();
    std::size_t delivered = 0;
    while (pending_head != MessageArena::kNil &&
           arena->slot(pending_head).due <= now) {
      const std::uint32_t idx = pending_head;
      MessageArena::Slot& s = arena->slot(idx);
      pending_head = s.next;
      // If the reader already closed its end, the bytes vanish (RST-like).
      if (!inbox.closed()) inbox.push(std::move(s.msg));
      arena->release(idx);
      ++delivered;
    }
    if (pending_head == MessageArena::kNil) pending_tail = MessageArena::kNil;
    arena->note_flush(delivered);
  }

  sim::Channel<Message> inbox;
  sim::Engine* engine;
  MessageArena* arena;
  sim::Time wire_free_at = 0;  // sender clock: when the wire next idles
  bool closed = false;
  std::uint32_t pending_head = MessageArena::kNil;
  std::uint32_t pending_tail = MessageArena::kNil;
};

struct Connection;

/// A counted reference to a connection block, held by the engine events
/// that deliver into one of its pipes (16 bytes: inline in sim::Callback).
class PipeRef {
 public:
  PipeRef(Connection* conn, Pipe* pipe) noexcept;
  PipeRef(PipeRef&& o) noexcept
      : conn_(std::exchange(o.conn_, nullptr)), pipe_(o.pipe_) {}
  PipeRef& operator=(PipeRef&&) = delete;
  ~PipeRef();
  Pipe* operator->() const noexcept { return pipe_; }

 private:
  Connection* conn_;
  Pipe* pipe_;
};

}  // namespace detail

/// One endpoint of an established connection. Endpoints live inside their
/// connection's block; SocketPtr is the handle that owns one.
class Socket {
 public:
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  NodeId local_node() const;
  NodeId remote_node() const;

  /// Queues a message for delivery; returns immediately (buffered send).
  /// Messages on one socket arrive in send order after wire time.
  void send(Message m);

  /// Like send(), but completes only when the payload has fully left this
  /// endpoint (used for bulk transfers whose sender must hold resources).
  sim::Task<void> send_sync(Message m);

  /// The inbox's own awaiter: a blocking receive allocates nothing (no
  /// coroutine frame, no wait state). On a locally closed socket it
  /// completes at once with std::nullopt. Not movable (it is the waiter's
  /// list node), so a wrapping awaiter constructs it in place.
  class RecvAwaiter : public sim::Channel<Message>::RecvAwaiter {
   public:
    explicit RecvAwaiter(Socket& s)
        : sim::Channel<Message>::RecvAwaiter(s.open_ ? &s.in().inbox
                                                     : nullptr) {}
  };

  /// Receives the next message; std::nullopt = EOF (peer closed or died,
  /// or this end closed).
  RecvAwaiter recv() { return RecvAwaiter(*this); }

  /// Half-closes our sending direction and refuses further receives.
  void close();

 private:
  friend class SocketPtr;
  friend struct detail::Connection;
  Socket(detail::Connection* conn, bool is_a) : conn_(conn), is_a_(is_a) {}

  detail::Pipe& out();
  detail::Pipe& in();
  const detail::Pipe& in() const;
  sim::Time queue_on_wire(const Message& m);
  /// Delivers the outgoing pipe's due messages at `at` (one engine event
  /// per send).
  void schedule_flush(sim::Time at);
  void retain() noexcept;
  /// Drops one handle; the last one closes this endpoint.
  void release() noexcept;

  detail::Connection* conn_;
  bool is_a_;
  bool open_ = true;
  std::uint32_t handles_ = 0;
};

/// Owning handle to one endpoint, used like a shared_ptr<Socket>: copies
/// share the endpoint, and when the last one drops the endpoint closes (its
/// peer sees EOF then). Made only by Network::connect and Listener::accept.
class SocketPtr {
 public:
  SocketPtr() noexcept = default;
  SocketPtr(std::nullptr_t) noexcept {}
  SocketPtr(const SocketPtr& o) noexcept : s_(o.s_) {
    if (s_ != nullptr) s_->retain();
  }
  SocketPtr(SocketPtr&& o) noexcept : s_(std::exchange(o.s_, nullptr)) {}
  SocketPtr& operator=(SocketPtr o) noexcept {
    std::swap(s_, o.s_);
    return *this;
  }
  ~SocketPtr() { reset(); }

  void reset() noexcept {
    if (Socket* s = std::exchange(s_, nullptr)) s->release();
  }
  Socket* get() const noexcept { return s_; }
  Socket& operator*() const noexcept { return *s_; }
  Socket* operator->() const noexcept { return s_; }
  explicit operator bool() const noexcept { return s_ != nullptr; }
  friend bool operator==(const SocketPtr& p, std::nullptr_t) noexcept {
    return p.s_ == nullptr;
  }

 private:
  friend class Network;
  explicit SocketPtr(Socket* s) noexcept : s_(s) { s_->retain(); }

  Socket* s_ = nullptr;
};

namespace detail {

/// One established connection: both endpoints and both directions, built
/// by Network::connect in one allocation. `refs` counts the endpoints'
/// handles plus the in-flight delivery and EOF events; the block frees
/// itself when it reaches zero. Live blocks form the network's list in
/// creation order (reset_node walks it).
struct Connection {
  Connection(Network& network, NodeId a, NodeId b);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void retain() noexcept { ++refs; }
  void release() noexcept {
    if (--refs == 0) delete this;
  }

  /// Declared before the pipes so their destructors (which release parked
  /// messages back into the arena) run while the arena is still alive —
  /// even if the owning Network is long gone.
  std::shared_ptr<MessageArena> arena_ref;
  Pipe a_to_b;
  Pipe b_to_a;
  Socket a;  // the connecting side
  Socket b;  // the accepting side
  NodeId node_a, node_b;
  Network* net;  // null once the network is destroyed
  std::uint32_t refs = 0;
  Connection* prev = nullptr;
  Connection* next = nullptr;
};

inline PipeRef::PipeRef(Connection* conn, Pipe* pipe) noexcept
    : conn_(conn), pipe_(pipe) {
  conn_->retain();
}
inline PipeRef::~PipeRef() {
  if (conn_ != nullptr) conn_->release();
}

}  // namespace detail

inline void Socket::retain() noexcept {
  ++handles_;
  conn_->retain();
}

inline void Socket::release() noexcept {
  if (--handles_ == 0) close();
  conn_->release();
}

/// A bound, listening port. accept() yields established server-side sockets.
/// Its network keeps its address, so it never moves; an owner that keeps
/// one by value holds it in a std::optional.
class Listener {
 public:
  /// Binds `addr`; throws std::invalid_argument if the port is taken.
  Listener(Network& net, Address addr);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  Address address() const { return addr_; }

  /// Awaiter of accept(): the pending-connection channel's receive, with
  /// "closed" mapped to a null socket.
  class AcceptAwaiter : public sim::Channel<SocketPtr>::RecvAwaiter {
   public:
    using RecvAwaiter::RecvAwaiter;
    SocketPtr await_resume() {
      std::optional<SocketPtr> s = RecvAwaiter::await_resume();
      return s ? std::move(*s) : nullptr;
    }
  };

  /// Waits for the next inbound connection; null if the listener closed.
  AcceptAwaiter accept() { return AcceptAwaiter(&pending_); }

  void close();

 private:
  friend class Network;
  Network* net_;
  Address addr_;
  sim::Channel<SocketPtr> pending_;
  bool open_ = true;
};

/// The machine-wide socket namespace: binds listeners, establishes
/// connections, and owns the fabric timing model.
///
/// Fault hooks (driven by core::ChaosEngine): the network can stall a node
/// — every message *sent* from or *delivered to* it during the window is
/// held until the window closes, modelling a paused NIC/TCP stack — or
/// reset a node, RST-closing every established connection that touches it.
/// Both are deterministic: a stall only affects messages queued after the
/// injection, and resets fire at the current simulated time.
class Network {
 public:
  Network(sim::Engine& engine, std::shared_ptr<const Fabric> fabric)
      : engine_(&engine), fabric_(std::move(fabric)),
        arena_(std::make_shared<MessageArena>()) {}
  /// Detaches the connection blocks that outlive it (held by pending
  /// engine events).
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Engine& engine() { return *engine_; }
  const Fabric& fabric() const { return *fabric_; }
  /// In-flight message arena (shared with every connection's pipes).
  const MessageArena& arena() const { return *arena_; }

  /// A heap listener (see Listener's constructor).
  std::unique_ptr<Listener> listen(Address addr);

  /// Awaiter of connect(): one fabric round trip (the caller's resumption
  /// at now + RTT, the event sim::delay schedules), then the connection is
  /// built — both endpoints in one block — or ConnectError is thrown. No
  /// coroutine frame of its own.
  class ConnectAwaiter {
   public:
    ConnectAwaiter(Network& net, NodeId from, Address to)
        : net_(&net), from_(from), to_(to) {}
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> h) const {
      // SYN + SYN/ACK: one round trip before the connection is established.
      sim::delay(net_->fabric().latency(from_, to_.node) * 2).await_suspend(h);
    }
    SocketPtr await_resume() const { return net_->establish(from_, to_); }

   private:
    Network* net_;
    NodeId from_;
    Address to_;
  };

  /// Establishes a connection from `from` to the listener at `to`.
  /// Takes one fabric round trip; throws ConnectError if nothing listens.
  ConnectAwaiter connect(NodeId from, Address to) {
    return ConnectAwaiter(*this, from, to);
  }

  /// Number of live bound listeners (diagnostics).
  std::size_t listener_count() const { return listeners_.size(); }

  /// Connections whose block is alive: an endpoint still has a handle or
  /// a delivery is in flight (diagnostics).
  std::size_t connection_count() const { return connections_; }

  // --- Fault hooks ------------------------------------------------------

  /// Freezes `node`'s traffic for `d`: sends originating there serialize
  /// only after the window, and in-window deliveries to it are deferred to
  /// the window's end. Overlapping stalls extend to the latest deadline.
  void stall_node(NodeId node, sim::Duration d);

  /// Absolute time until which `node` is stalled (0 = not stalled).
  sim::Time stall_until(NodeId node) const;

  /// RST-closes every live connection with an endpoint on `node`: both
  /// directions see EOF immediately, exactly as if the peer vanished.
  /// Listeners stay bound (the node's OS is alive; only its connections
  /// are torn). Returns the number of connections reset.
  std::size_t reset_node(NodeId node);

 private:
  friend class Listener;
  friend class Socket;
  friend struct detail::Connection;
  /// The connection to the listener at `to`, after the round trip.
  SocketPtr establish(NodeId from, Address to);
  std::vector<Listener*>::iterator find_listener(Address addr);
  void unbind(Address addr);

  sim::Engine* engine_;
  std::shared_ptr<const Fabric> fabric_;
  std::shared_ptr<MessageArena> arena_;
  /// Bound listeners, sorted by address.
  std::vector<Listener*> listeners_;
  /// Live connection blocks in creation order, for reset_node; each block
  /// links itself in when built and out when freed.
  detail::Connection* first_ = nullptr;
  detail::Connection* last_ = nullptr;
  std::size_t connections_ = 0;
  std::map<NodeId, sim::Time> stalled_;
};

}  // namespace jets::net
