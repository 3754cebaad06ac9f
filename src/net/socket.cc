#include "net/socket.hh"

#include <algorithm>
#include <utility>

namespace jets::net {

// --- Connection -------------------------------------------------------------

namespace detail {

Connection::Connection(Network& network, NodeId a_node, NodeId b_node)
    : arena_ref(network.arena_),
      a_to_b(network.engine(), arena_ref.get()),
      b_to_a(network.engine(), arena_ref.get()),
      a(this, /*is_a=*/true),
      b(this, /*is_a=*/false),
      node_a(a_node),
      node_b(b_node),
      net(&network),
      prev(network.last_) {
  (prev != nullptr ? prev->next : network.first_) = this;
  network.last_ = this;
  ++network.connections_;
}

Connection::~Connection() {
  if (net == nullptr) return;
  (prev != nullptr ? prev->next : net->first_) = next;
  (next != nullptr ? next->prev : net->last_) = prev;
  --net->connections_;
}

}  // namespace detail

// --- Socket -----------------------------------------------------------------

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
  Network& net = *conn_->net;
  const Fabric& fabric = net.fabric();
  detail::Pipe& pipe = out();
  const sim::Time start = std::max({net.engine().now(), pipe.wire_free_at,
                                    net.stall_until(local_node())});
  const sim::Time sent = start + fabric.serialization_time(m.wire_size());
  pipe.wire_free_at = sent;
  return std::max(sent + fabric.latency(local_node(), remote_node()),
                  net.stall_until(remote_node()));
}

void Socket::schedule_flush(sim::Time at) {
  // Still one engine event per send — the event heap's (time, seq) layout
  // is byte-identical to the per-message scheme — but the payload lives in
  // the arena, and the closure is one counted reference to the connection
  // block (16 bytes, inline in the event slot's sim::Callback), so the
  // delivery event allocates nothing. The earliest event of a same-instant
  // burst drains the whole due batch (Pipe::flush); its siblings find the
  // chain empty.
  detail::Pipe& pipe = out();
  pipe.engine->call_at(at, [p = detail::PipeRef(conn_, &pipe)] { p->flush(); });
}

void Socket::send(Message m) {
  if (!open_ || out().closed) return;  // writes on a closed socket are dropped
  const sim::Time deliver_at = queue_on_wire(m);
  out().park(std::move(m), deliver_at);
  schedule_flush(deliver_at);
}

sim::Task<void> Socket::send_sync(Message m) {
  if (!open_ || out().closed) co_return;
  const sim::Time deliver_at = queue_on_wire(m);
  // queue_on_wire advanced the wire clock to the instant the payload has
  // fully left this endpoint (stalls included); that is what the sender
  // holds resources until.
  const sim::Time sent_at = out().wire_free_at;
  out().park(std::move(m), deliver_at);
  schedule_flush(deliver_at);
  const sim::Duration wait = sent_at - out().engine->now();
  if (wait > 0) co_await sim::delay(wait);
}

void Socket::close() {
  if (!open_) return;
  open_ = false;
  detail::Pipe& outgoing = out();
  outgoing.closed = true;
  Network* net = conn_->net;
  if (net == nullptr) return;  // torn down with its network
  // Signal EOF to the peer after anything already on the wire arrives.
  const sim::Time eof_at =
      std::max(net->engine().now(),
               outgoing.wire_free_at +
                   net->fabric().latency(local_node(), remote_node()));
  net->engine().call_at(eof_at, [p = detail::PipeRef(conn_, &outgoing)] {
    p->inbox.close();
  });
}

// --- Listener ---------------------------------------------------------------

Listener::Listener(Network& net, Address addr)
    : net_(&net), addr_(addr), pending_(net.engine()) {
  const auto it = net.find_listener(addr);
  if (it != net.listeners_.end() && (*it)->addr_ == addr) {
    throw std::invalid_argument("port already bound: node " +
                                std::to_string(addr.node) + ":" +
                                std::to_string(addr.port));
  }
  net.listeners_.insert(it, this);
}

Listener::~Listener() { close(); }

void Listener::close() {
  if (!open_) return;
  open_ = false;
  pending_.close();
  net_->unbind(addr_);
}

// --- Network ----------------------------------------------------------------

Network::~Network() {
  for (detail::Connection* c = first_; c != nullptr;) {
    detail::Connection* next = c->next;
    c->net = nullptr;
    c->prev = c->next = nullptr;
    c = next;
  }
}

std::vector<Listener*>::iterator Network::find_listener(Address addr) {
  return std::lower_bound(
      listeners_.begin(), listeners_.end(), addr,
      [](const Listener* l, const Address& a) { return l->addr_ < a; });
}

std::unique_ptr<Listener> Network::listen(Address addr) {
  return std::make_unique<Listener>(*this, addr);
}

void Network::unbind(Address addr) {
  const auto it = find_listener(addr);
  if (it != listeners_.end() && (*it)->addr_ == addr) listeners_.erase(it);
}

SocketPtr Network::establish(NodeId from, Address to) {
  const auto it = find_listener(to);
  if (it == listeners_.end() || (*it)->addr_ != to || !(*it)->open_) {
    throw ConnectError(to);
  }
  auto* conn = new detail::Connection(*this, from, to.node);
  SocketPtr client(&conn->a);
  (*it)->pending_.push(SocketPtr(&conn->b));
  return client;
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
  for (detail::Connection* conn = first_; conn != nullptr; conn = conn->next) {
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
  return reset;
}

}  // namespace jets::net
