#include "pmi/client.hh"

#include <utility>

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
      new PmiClient(machine.engine(), std::move(sock), rank, size));
  client->tracer_ = tr;
  client->track_ = track;
  co_return client;
}

void PmiClient::put(const std::string& key, const std::string& value) {
  net::rpc::post(*socket(), net::rpc::PmiPut{key, value});
}

void PmiClient::finalize() {
  net::rpc::post(*socket(), net::rpc::PmiFinalize{rank_});
}

}  // namespace jets::pmi
