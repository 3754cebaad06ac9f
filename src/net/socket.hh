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
// Sockets are shared_ptr-owned; a killed process's coroutine frames drop
// their references during teardown and the destructor closes the
// connection, so the remote side's recv() wakes with EOF just as a real
// peer reset would.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
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

class Socket;
using SocketPtr = std::shared_ptr<Socket>;

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

struct Connection {
  Connection(sim::Engine& engine, std::shared_ptr<MessageArena> arena,
             NodeId a, NodeId b)
      : arena_ref(std::move(arena)), a_to_b(engine, arena_ref.get()),
        b_to_a(engine, arena_ref.get()), node_a(a), node_b(b) {}
  /// Declared before the pipes so their destructors (which release parked
  /// messages back into the arena) run while the arena is still alive —
  /// even if the owning Network is long gone.
  std::shared_ptr<MessageArena> arena_ref;
  Pipe a_to_b;
  Pipe b_to_a;
  NodeId node_a, node_b;
};

}  // namespace detail

class Network;

/// One endpoint of an established connection.
class Socket {
 public:
  /// Use Network::connect / Listener::accept; this is internal.
  Socket(Network& net, std::shared_ptr<detail::Connection> conn, bool is_a);
  ~Socket() { close(); }
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
    RecvAwaiter(Socket& s, sim::Duration timeout)
        : sim::Channel<Message>::RecvAwaiter(s.open_ ? &s.in().inbox : nullptr,
                                             timeout) {}
  };

  /// Receives the next message; std::nullopt = EOF (peer closed or died).
  RecvAwaiter recv() { return recv_for(-1); }

  /// recv with a timeout; std::nullopt = timeout *or* EOF. Callers that
  /// must distinguish check eof() afterwards.
  RecvAwaiter recv_for(sim::Duration timeout) {
    return RecvAwaiter(*this, timeout);
  }

  /// True once the peer has closed and the inbox has drained.
  bool eof() const;

  /// Half-closes our sending direction and refuses further receives.
  void close();

 private:
  detail::Pipe& out();
  detail::Pipe& in();
  const detail::Pipe& in() const;
  sim::Time queue_on_wire(const Message& m);

  Network* net_;
  std::shared_ptr<detail::Connection> conn_;
  bool is_a_;
  bool open_ = true;
};

/// A bound, listening port. accept() yields established server-side sockets.
class Listener {
 public:
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
  AcceptAwaiter accept() { return AcceptAwaiter(&pending_, -1); }

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
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Engine& engine() { return *engine_; }
  const Fabric& fabric() const { return *fabric_; }
  /// In-flight message arena (shared with every connection's pipes).
  const MessageArena& arena() const { return *arena_; }

  /// Binds a listener; throws std::invalid_argument if the port is taken.
  std::unique_ptr<Listener> listen(Address addr);

  /// Establishes a connection from `from` to the listener at `to`.
  /// Takes one fabric round trip; throws ConnectError if nothing listens.
  sim::Task<SocketPtr> connect(NodeId from, Address to);

  /// Number of live bound listeners (diagnostics).
  std::size_t listener_count() const { return listeners_.size(); }

  /// Connections tracked for reset_node: the live ones plus dead ones not
  /// yet pruned, at most about twice the live count (diagnostics).
  std::size_t connection_count() const { return connections_.size(); }

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
  void unbind(Address addr) { listeners_.erase(addr); }
  void track(const std::shared_ptr<detail::Connection>& conn);

  /// The registry is swept no earlier than this size.
  static constexpr std::size_t kMinPrune = 64;

  sim::Engine* engine_;
  std::shared_ptr<const Fabric> fabric_;
  std::shared_ptr<MessageArena> arena_;
  std::map<Address, Listener*> listeners_;
  /// Connections in creation order, for reset_node. Dead entries pin
  /// their connection's make_shared block, so track() prunes them each
  /// time the list doubles since the last sweep.
  std::vector<std::weak_ptr<detail::Connection>> connections_;
  std::size_t prune_at_ = kMinPrune;
  std::map<NodeId, sim::Time> stalled_;
};

}  // namespace jets::net
