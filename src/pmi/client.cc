#include "pmi/client.hh"

#include <stdexcept>
#include <utility>

#include "obs/tracer.hh"

namespace jets::pmi {

sim::Task<std::unique_ptr<PmiClient>> PmiClient::connect(os::Machine& machine,
                                                         os::NodeId node,
                                                         net::Address control,
                                                         int rank, int size) {
  obs::Tracer* tr = machine.tracer();
  const std::uint64_t track = obs::track_node(node);
  obs::ScopedSpan span(tr, "pmi.connect", track);
  span.attr("rank", static_cast<std::int64_t>(rank));
  net::SocketPtr sock = co_await machine.network().connect(node, control);
  net::rpc::post(*sock, net::rpc::PmiInit{rank});
  auto client = std::unique_ptr<PmiClient>(
      new PmiClient(std::move(sock), rank, size));
  client->chan_ =
      std::make_unique<net::rpc::Channel>(machine.engine(), client->sock_);
  client->tracer_ = tr;
  client->track_ = track;
  co_return client;
}

void PmiClient::put(const std::string& key, const std::string& value) {
  net::rpc::post(*sock_, net::rpc::PmiPut{key, value});
}

sim::Task<std::string> PmiClient::get(const std::string& key) {
  // Interleaved barrier_out or stale value replies route through the
  // channel's correlation scan and drop as orphans — the defensive
  // skips the hand-written receive loop used to make.
  auto r = co_await chan_->call(net::rpc::PmiGet{key});
  if (!r.ok()) throw std::runtime_error("PMI: lost connection to mpiexec");
  co_return std::move(r.value().value);
}

sim::Task<void> PmiClient::barrier() {
  obs::ScopedSpan span(tracer_, "pmi.barrier", track_);
  span.attr("rank", static_cast<std::int64_t>(rank_));
  auto r = co_await chan_->call(net::rpc::PmiBarrier{rank_});
  if (!r.ok()) throw std::runtime_error("PMI: lost connection to mpiexec");
}

void PmiClient::finalize() {
  net::rpc::post(*sock_, net::rpc::PmiFinalize{rank_});
}

}  // namespace jets::pmi
