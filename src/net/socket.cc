#include "net/socket.hh"

#include <algorithm>
#include <utility>

namespace jets::net {

// --- Socket -----------------------------------------------------------------

Socket::Socket(Network& net, std::shared_ptr<detail::Connection> conn, bool is_a)
    : net_(&net), conn_(std::move(conn)), is_a_(is_a) {}

detail::Pipe& Socket::out() { return is_a_ ? conn_->a_to_b : conn_->b_to_a; }
detail::Pipe& Socket::in() { return is_a_ ? conn_->b_to_a : conn_->a_to_b; }
const detail::Pipe& Socket::in() const {
  return is_a_ ? conn_->b_to_a : conn_->a_to_b;
}

NodeId Socket::local_node() const { return is_a_ ? conn_->node_a : conn_->node_b; }
NodeId Socket::remote_node() const { return is_a_ ? conn_->node_b : conn_->node_a; }

sim::Time Socket::queue_on_wire(const Message& m) {
  // Sender-side wire clock: serialization occupies the link back-to-back,
  // so a burst of sends is delivered FIFO at link bandwidth; each message
  // additionally ages by the one-way fabric latency in flight. A stalled
  // sender serializes only after its stall window; a stalled receiver has
  // delivery deferred to its window's end (both keep FIFO order because
  // the deferral point is monotone in the send time).
  sim::Engine& engine = net_->engine();
  const Fabric& fabric = net_->fabric();
  detail::Pipe& pipe = out();
  const sim::Time start = std::max({engine.now(), pipe.wire_free_at,
                                    net_->stall_until(local_node())});
  const sim::Time sent = start + fabric.serialization_time(m.wire_size());
  pipe.wire_free_at = sent;
  return std::max(sent + fabric.latency(local_node(), remote_node()),
                  net_->stall_until(remote_node()));
}

void Socket::send(Message m) {
  if (!open_ || out().closed) return;  // writes on a closed socket are dropped
  const sim::Time deliver_at = queue_on_wire(m);
  detail::Pipe& pipe = out();
  pipe.park(std::move(m), deliver_at);
  // Still one engine event per send — the event heap's (time, seq) layout
  // is byte-identical to the per-message scheme — but the payload lives in
  // the arena, and the closure is a single aliasing shared_ptr (16 bytes,
  // inline in the event slot's sim::Callback), so the delivery event
  // allocates nothing. The earliest event of a same-instant burst drains
  // the whole due batch (Pipe::flush); its siblings find the chain empty.
  net_->engine().call_at(
      deliver_at,
      [p = std::shared_ptr<detail::Pipe>(conn_, &pipe)] { p->flush(); });
}

sim::Task<void> Socket::send_sync(Message m) {
  if (!open_ || out().closed) co_return;
  const sim::Time deliver_at = queue_on_wire(m);
  // queue_on_wire advanced the wire clock to the instant the payload has
  // fully left this endpoint (stalls included); that is what the sender
  // holds resources until.
  const sim::Time sent_at = out().wire_free_at;
  detail::Pipe& pipe = out();
  pipe.park(std::move(m), deliver_at);
  net_->engine().call_at(
      deliver_at,
      [p = std::shared_ptr<detail::Pipe>(conn_, &pipe)] { p->flush(); });
  const sim::Duration wait = sent_at - net_->engine().now();
  if (wait > 0) co_await sim::delay(wait);
}

bool Socket::eof() const { return in().inbox.closed() && in().inbox.empty(); }

void Socket::close() {
  if (!open_) return;
  open_ = false;
  detail::Pipe& outgoing = out();
  outgoing.closed = true;
  // Signal EOF to the peer after anything already on the wire arrives.
  auto conn = conn_;
  const bool to_b = is_a_;
  const sim::Time eof_at =
      std::max(net_->engine().now(),
               outgoing.wire_free_at +
                   net_->fabric().latency(local_node(), remote_node()));
  net_->engine().call_at(eof_at, [conn, to_b] {
    detail::Pipe& p = to_b ? conn->a_to_b : conn->b_to_a;
    p.inbox.close();
  });
}

// --- Listener ---------------------------------------------------------------

Listener::Listener(Network& net, Address addr)
    : net_(&net), addr_(addr), pending_(net.engine()) {}

Listener::~Listener() { close(); }

void Listener::close() {
  if (!open_) return;
  open_ = false;
  pending_.close();
  net_->unbind(addr_);
}

// --- Network ----------------------------------------------------------------

std::unique_ptr<Listener> Network::listen(Address addr) {
  if (listeners_.contains(addr)) {
    throw std::invalid_argument("port already bound: node " +
                                std::to_string(addr.node) + ":" +
                                std::to_string(addr.port));
  }
  auto l = std::make_unique<Listener>(*this, addr);
  listeners_[addr] = l.get();
  return l;
}

sim::Task<SocketPtr> Network::connect(NodeId from, Address to) {
  // SYN + SYN/ACK: one round trip before the connection is established.
  const sim::Duration rtt = fabric_->latency(from, to.node) * 2;
  co_await sim::delay(rtt);
  auto it = listeners_.find(to);
  if (it == listeners_.end() || !it->second->open_) throw ConnectError(to);
  auto conn =
      std::make_shared<detail::Connection>(*engine_, arena_, from, to.node);
  track(conn);
  auto client = std::make_shared<Socket>(*this, conn, /*is_a=*/true);
  auto server = std::make_shared<Socket>(*this, conn, /*is_a=*/false);
  it->second->pending_.push(std::move(server));
  co_return client;
}

void Network::track(const std::shared_ptr<detail::Connection>& conn) {
  connections_.push_back(conn);
  if (connections_.size() < prune_at_) return;
  // Amortized O(1) per connect. Order is kept, so reset_node visits the
  // live connections in the same order whether or not a sweep ran.
  std::erase_if(connections_,
                [](const std::weak_ptr<detail::Connection>& w) {
                  return w.expired();
                });
  prune_at_ = std::max(kMinPrune, 2 * connections_.size());
}

// --- Fault hooks -------------------------------------------------------------

void Network::stall_node(NodeId node, sim::Duration d) {
  if (d <= 0) return;
  sim::Time& until = stalled_[node];
  until = std::max(until, engine_->now() + d);
}

sim::Time Network::stall_until(NodeId node) const {
  auto it = stalled_.find(node);
  return it == stalled_.end() ? 0 : it->second;
}

std::size_t Network::reset_node(NodeId node) {
  std::size_t reset = 0;
  std::vector<std::weak_ptr<detail::Connection>> live;
  live.reserve(connections_.size());
  for (auto& weak : connections_) {
    auto conn = weak.lock();
    if (!conn) continue;  // all endpoints gone: prune
    live.push_back(weak);
    if (conn->node_a != node && conn->node_b != node) continue;
    if (conn->a_to_b.closed && conn->b_to_a.closed) continue;  // already dead
    // RST semantics: both directions die *now* — in-flight bytes vanish
    // and both ends' pending/future receives complete with EOF.
    for (detail::Pipe* pipe : {&conn->a_to_b, &conn->b_to_a}) {
      pipe->closed = true;
      if (!pipe->inbox.closed()) pipe->inbox.close();
    }
    ++reset;
  }
  connections_ = std::move(live);
  return reset;
}

}  // namespace jets::net
