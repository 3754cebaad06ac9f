#include "mpi/comm.hh"

#include <stdexcept>
#include <string_view>

namespace jets::mpi {

namespace rpc = net::rpc;

namespace {

std::string card_key(int rank) { return "card." + std::to_string(rank); }

/// A business card is "<node> <port>", each a full decimal number in range.
net::Address parse_card(int rank, const std::string& card) {
  const std::string_view text(card);
  const std::size_t space = text.find(' ');
  std::optional<os::NodeId> node;
  std::optional<net::Port> port;
  if (space != std::string_view::npos) {
    node = rpc::parse_number<os::NodeId>(text.substr(0, space));
    port = rpc::parse_number<net::Port>(text.substr(space + 1));
  }
  if (!node || !port) {
    throw std::runtime_error("MPI: malformed business card for rank " +
                             std::to_string(rank) + ": '" + card + "'");
  }
  return net::Address{*node, *port};
}

/// Rounds of a dissemination barrier over `size` ranks: ceil(log2(size)).
std::size_t barrier_rounds(int size) {
  std::size_t rounds = 0;
  for (int k = 1; k < size; k <<= 1) ++rounds;
  return rounds;
}

}  // namespace

Comm::Comm(os::Env& env, int rank, int size)
    : env_(&env), machine_(env.machine), rank_(rank), size_(size) {
  // A barrier wires a peer per round in each direction; other patterns
  // grow the table further as they wire.
  peers_.reserve(2 * barrier_rounds(size));
}

Comm::~Comm() {
  if (acceptor_ != 0) machine_->engine().kill(acceptor_);
}

sim::Task<std::unique_ptr<Comm>> Comm::init(os::Env& env) {
  if (env.pmi == nullptr) {
    throw std::logic_error("MPI_Init: process was not started by a PMI proxy");
  }
  auto comm = std::unique_ptr<Comm>(
      new Comm(env, env.pmi->rank(), env.pmi->size()));
  comm->self_addr_ =
      net::Address{env.node, env.machine->allocate_port()};
  comm->listener_.emplace(env.machine->network(), comm->self_addr_);
  comm->acceptor_ =
      env.machine->engine().spawn("mpi-acceptor", comm->accept_loop());
  // Publish this rank's business card and fence.
  env.pmi->put(card_key(comm->rank_),
               std::to_string(comm->self_addr_.node) + " " +
                   std::to_string(comm->self_addr_.port));
  co_await env.pmi->barrier();
  co_return comm;
}

double Comm::wtime() const {
  return sim::to_seconds(machine_->engine().now());
}

Comm::Peer* Comm::find(int rank) {
  for (Peer& p : peers_) {
    if (p.rank == rank) return &p;
  }
  return nullptr;
}

Comm::Peer& Comm::peer(int rank) {
  if (Peer* p = find(rank)) return *p;
  peers_.push_back(Peer{rank, nullptr, nullptr});
  return peers_.back();
}

net::Socket* Comm::wired_out(int dest) {
  Peer* p = find(dest);
  return p != nullptr ? p->out.get() : nullptr;
}

void Comm::check_rank(int r, const char* op) const {
  if (r < 0 || r >= size_) {
    throw std::invalid_argument(std::string(op) + ": rank " + std::to_string(r) +
                                " out of range for size " +
                                std::to_string(size_));
  }
}

sim::Task<void> Comm::accept_loop() {
  for (;;) {
    net::SocketPtr sock = co_await listener_->accept();
    if (!sock) co_return;
    std::optional<net::Message> m = co_await sock->recv();
    if (!m) continue;
    // Drop (close) a connection whose hello is malformed, names no rank
    // of this communicator, or claims a rank that already dialed in.
    const auto hello = rpc::take<rpc::MpiHello>(std::move(*m));
    if (!hello.ok()) continue;
    const int src = hello.value().rank;
    if (src < 0 || src >= size_) continue;
    Peer& p = peer(src);
    if (p.in) continue;
    p.in = std::move(sock);
    // Wake the receives parked on this source, oldest first.
    std::erase_if(parked_, [&](std::pair<int, sim::Resumption>& w) {
      if (w.first != src) return false;
      machine_->engine().schedule(machine_->engine().now(), std::move(w.second));
      return true;
    });
  }
}

sim::Task<net::Socket*> Comm::dial(int dest) {
  // Fetch the peer's card (blocking PMI get) and dial it.
  const std::string card = co_await env_->pmi->get(card_key(dest));
  const net::Address addr = parse_card(dest, card);
  net::SocketPtr sock = co_await machine_->network().connect(env_->node, addr);
  rpc::post(*sock, rpc::MpiHello{rank_});
  net::Socket* raw = sock.get();
  peer(dest).out = std::move(sock);
  co_return raw;
}

Comm::SendOp Comm::send(int dest, std::size_t bytes, int tag, double value) {
  check_rank(dest, "send");
  rpc::MpiMsg msg(rank_, tag, value, bytes);
  if (net::Socket* sock = wired_out(dest)) {
    rpc::post(*sock, std::move(msg));
    return SendOp();
  }
  return SendOp(dial(dest), std::move(msg));
}

sim::Task<void> Comm::ssend(int dest, std::size_t bytes, int tag) {
  check_rank(dest, "ssend");
  net::Socket* sock = wired_out(dest);
  if (sock == nullptr) sock = co_await dial(dest);
  std::optional<net::Message> m =
      rpc::frame(rpc::MpiMsg(rank_, tag, std::nullopt, bytes));
  co_await sock->send_sync(std::move(*m));
}

Comm::RecvOp Comm::recv(int src) {
  check_rank(src, "recv");
  return RecvOp(*this, src);
}

Comm::RecvOp::RecvOp(Comm& comm, int src) : comm_(&comm), src_(src) {
  Peer* p = comm.find(src);
  if (p != nullptr && p->in) {
    wire_.emplace(*p->in);
  } else {
    wiring_ = comm.recv_wiring(src);
  }
}

namespace {

/// Parks the awaiting coroutine in `parked` until its source dials in.
struct ParkAwaiter {
  std::vector<std::pair<int, sim::Resumption>>* parked;
  int src;
  bool await_ready() const noexcept { return false; }
  template <typename P>
  void await_suspend(std::coroutine_handle<P> h) {
    parked->emplace_back(src, sim::Resumption::of(h, h.promise().context()));
  }
  void await_resume() const noexcept {}
};

}  // namespace

sim::Task<RecvResult> Comm::recv_wiring(int src) {
  co_await ParkAwaiter{&parked_, src};
  Peer* p = find(src);
  if (p == nullptr || !p->in) throw std::runtime_error("MPI recv: lost peer");
  std::optional<net::Message> m = co_await p->in->recv();
  co_return unpack(src, std::move(m));
}

RecvResult Comm::unpack(int src, std::optional<net::Message> m) {
  if (!m) {
    throw std::runtime_error("MPI recv: connection to rank " +
                             std::to_string(src) + " lost");
  }
  auto msg = rpc::take<rpc::MpiMsg>(std::move(*m));
  if (!msg.ok()) {
    throw std::runtime_error("MPI recv: malformed frame from rank " +
                             std::to_string(src) + ": " +
                             rpc::to_string(msg.error()));
  }
  RecvResult r;
  r.source = msg.value().source;
  r.tag = msg.value().tag;
  r.value = msg.value().value.value_or(0);
  r.bytes = msg.value().payload;
  return r;
}

sim::Task<void> Comm::barrier() {
  if (size_ == 1) co_return;
  for (int k = 1; k < size_; k <<= 1) {
    const int dest = (rank_ + k) % size_;
    const int src = (rank_ - k + size_) % size_;
    co_await send(dest, 1, /*tag=*/-k);
    (void)co_await recv(src);
  }
}

namespace {
/// Reserved tag space for collective traffic (never collides with the
/// negative tags the barrier uses, which are powers of two times -1).
constexpr int kIoDataTag = -1000001;
constexpr int kIoAckTag = -1000002;
constexpr int kCollTag = -1000003;
}  // namespace

sim::Task<std::size_t> Comm::bcast(std::size_t bytes, int root) {
  if (root < 0 || root >= size_) {
    throw std::invalid_argument("bcast: root " + std::to_string(root) +
                                " out of range for size " +
                                std::to_string(size_));
  }
  if (size_ == 1) co_return bytes;
  const int vrank = (rank_ - root + size_) % size_;
  auto real = [this, root](int v) { return (v + root) % size_; };
  std::size_t payload = bytes;
  // Binomial tree: receive from the parent, then relay down the subtree.
  int mask = 1;
  while (mask < size_) {
    if (vrank & mask) {
      RecvResult r = co_await recv(real(vrank - mask));
      payload = r.bytes;
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < size_ && (vrank & (mask - 1)) == 0 && !(vrank & mask)) {
      co_await send(real(vrank + mask), payload, kCollTag);
    }
    mask >>= 1;
  }
  co_return payload;
}

sim::Task<double> Comm::reduce_sum(double value, int root) {
  if (root < 0 || root >= size_) {
    throw std::invalid_argument("reduce_sum: root " + std::to_string(root) +
                                " out of range for size " +
                                std::to_string(size_));
  }
  if (size_ == 1) co_return value;
  const int vrank = (rank_ - root + size_) % size_;
  auto real = [this, root](int v) { return (v + root) % size_; };
  double acc = value;
  for (int mask = 1; mask < size_; mask <<= 1) {
    if (vrank & mask) {
      co_await send(real(vrank - mask), sizeof(double), kCollTag, acc);
      break;
    }
    const int partner = vrank | mask;
    if (partner < size_) {
      RecvResult r = co_await recv(real(partner));
      acc += r.value;
    }
  }
  co_return acc;
}

sim::Task<double> Comm::allreduce_sum(double value) {
  const double total = co_await reduce_sum(value, 0);
  // Broadcast the scalar back down the same binomial tree.
  if (size_ == 1) co_return total;
  double out = total;
  const int vrank = rank_;
  int mask = 1;
  while (mask < size_) {
    if (vrank & mask) {
      RecvResult r = co_await recv(vrank - mask);
      out = r.value;
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < size_ && (vrank & (mask - 1)) == 0 && !(vrank & mask)) {
      co_await send(vrank + mask, sizeof(double), kCollTag, out);
    }
    mask >>= 1;
  }
  co_return out;
}

sim::Task<void> Comm::write_all(const std::string& path,
                                std::size_t bytes_per_rank) {
  if (size_ == 1) {
    co_await env_->machine->shared_fs().write(path, bytes_per_rank);
    co_return;
  }
  if (rank_ == 0) {
    // Two-phase aggregation: gather the payloads, then one client writes.
    std::size_t total = bytes_per_rank;
    for (int src = 1; src < size_; ++src) {
      RecvResult r = co_await recv(src);
      total += r.bytes;
    }
    co_await env_->machine->shared_fs().write(
        path, static_cast<std::uint64_t>(total));
    for (int dst = 1; dst < size_; ++dst) {
      co_await send(dst, 1, kIoAckTag);
    }
  } else {
    co_await send(0, bytes_per_rank, kIoDataTag);
    (void)co_await recv(0);  // durable ack
  }
}

sim::Task<void> Comm::write_independent(const std::string& path,
                                        std::size_t bytes_per_rank) {
  co_await env_->machine->shared_fs().write(
      path + "." + std::to_string(rank_),
      static_cast<std::uint64_t>(bytes_per_rank));
}

sim::Task<void> Comm::finalize() {
  if (finalized_) co_return;
  finalized_ = true;
  co_await env_->pmi->barrier();
  machine_->engine().kill(acceptor_);
  acceptor_ = 0;
  listener_.reset();
  peers_.clear();
}

}  // namespace jets::mpi
