// Unit tests for fabric models and the simulated socket layer.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/fabric.hh"
#include "net/socket.hh"
#include "sim/sim.hh"

namespace jets::net {
namespace {

using sim::Engine;
using sim::Task;
using sim::Time;

TEST(TorusShape, HopCounts) {
  TorusShape s{8, 8, 16};
  EXPECT_EQ(s.size(), 1024u);
  EXPECT_EQ(s.hops(0, 0), 0u);
  EXPECT_EQ(s.hops(0, 1), 1u);      // +1 in x
  EXPECT_EQ(s.hops(0, 7), 1u);      // x wraps: distance 1 the short way
  EXPECT_EQ(s.hops(0, 8), 1u);      // +1 in y
  EXPECT_EQ(s.hops(0, 64), 1u);     // +1 in z
  EXPECT_EQ(s.hops(0, 64 * 8), 8u); // z=8 is the farthest ring point (16/2)
  EXPECT_EQ(s.hops(3, 3), 0u);
  // Symmetry.
  EXPECT_EQ(s.hops(17, 903), s.hops(903, 17));
}

TEST(Fabric, EthernetTransferTime) {
  EthernetFabric f(sim::microseconds(60), 125e6);
  // 125 MB at 125 MB/s = 1 s (+60 us latency).
  EXPECT_EQ(f.transfer_time(0, 1, 125'000'000),
            sim::microseconds(60) + sim::seconds(1));
  // Loopback is cheaper than the wire.
  EXPECT_LT(f.transfer_time(0, 0, 1000), f.transfer_time(0, 1, 1000));
}

TEST(Fabric, TorusTcpLatencyDwarfsNative) {
  TorusShape shape{8, 8, 16};
  TorusTcpFabric tcp(shape);
  TorusNativeFabric native(shape);
  // The ZeptoOS TCP path should be orders of magnitude slower for small
  // messages (Fig 8).
  EXPECT_GT(tcp.latency(0, 1), 50 * native.latency(0, 1));
  // Large-message bandwidth is only mildly lower.
  const double ratio =
      sim::to_seconds(tcp.serialization_time(1 << 22)) /
      sim::to_seconds(native.serialization_time(1 << 22));
  EXPECT_GT(ratio, 1.0);
  EXPECT_LT(ratio, 4.0);
}

TEST(Message, WireSizeCountsFieldsAndPayload) {
  Message m("task", {"namd2.sh", "in.pdb"}, 1000);
  EXPECT_GT(m.wire_size(), 1000u);
  EXPECT_LT(m.wire_size(), 1100u);
  Message empty;
  EXPECT_GT(empty.wire_size(), 0u);
}

class SocketTest : public ::testing::Test {
 protected:
  Engine engine;
  Network net{engine, std::make_shared<EthernetFabric>()};
};

TEST_F(SocketTest, ConnectAcceptRoundTrip) {
  auto listener = net.listen({1, 5000});
  std::string got;
  engine.spawn("server", [](Listener& l, std::string& got) -> Task<void> {
    SocketPtr s = co_await l.accept();
    EXPECT_NE(s, nullptr);
    auto m = co_await s->recv();
    EXPECT_TRUE(m.has_value());
    if (m) got = m->tag;
    s->send(Message("pong"));
  }(*listener, got));
  bool ponged = false;
  engine.spawn("client", [](Network& net, bool& ponged) -> Task<void> {
    SocketPtr s = co_await net.connect(0, {1, 5000});
    s->send(Message("ping"));
    auto m = co_await s->recv();
    ponged = m.has_value() && m->tag == "pong";
  }(net, ponged));
  engine.run();
  EXPECT_EQ(got, "ping");
  EXPECT_TRUE(ponged);
  EXPECT_GT(engine.now(), 0);  // wire time elapsed
}

TEST_F(SocketTest, ConnectionRefusedWithoutListener) {
  bool refused = false;
  engine.spawn("client", [](Network& net, bool& refused) -> Task<void> {
    try {
      (void)co_await net.connect(0, {1, 9999});
    } catch (const ConnectError&) {
      refused = true;
    }
  }(net, refused));
  engine.run();
  EXPECT_TRUE(refused);
}

TEST_F(SocketTest, MessagesArriveInOrder) {
  auto listener = net.listen({1, 5000});
  std::vector<int> got;
  engine.spawn("server", [](Listener& l, std::vector<int>& got) -> Task<void> {
    SocketPtr s = co_await l.accept();
    for (;;) {
      auto m = co_await s->recv();
      if (!m) break;
      got.push_back(std::stoi(m->args[0]));
    }
  }(*listener, got));
  engine.spawn("client", [](Network& net) -> Task<void> {
    SocketPtr s = co_await net.connect(0, {1, 5000});
    // A large message first, small ones after: FIFO must still hold.
    s->send(Message("m", {"0"}, 10'000'000));
    for (int i = 1; i < 5; ++i) s->send(Message("m", {std::to_string(i)}));
  }(net));
  engine.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(SocketTest, CloseDeliversEofAfterPendingData) {
  auto listener = net.listen({1, 5000});
  std::vector<std::string> got;
  bool eof = false;
  engine.spawn("server", [](Listener& l, std::vector<std::string>& got,
                            bool& eof) -> Task<void> {
    SocketPtr s = co_await l.accept();
    for (;;) {
      auto m = co_await s->recv();
      if (!m) {
        eof = true;
        break;
      }
      got.push_back(m->tag);
    }
  }(*listener, got, eof));
  engine.spawn("client", [](Network& net) -> Task<void> {
    SocketPtr s = co_await net.connect(0, {1, 5000});
    s->send(Message("a"));
    s->send(Message("b"));
    s->close();
  }(net));
  engine.run();
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(eof);
}

TEST_F(SocketTest, KilledPeerProducesEof) {
  auto listener = net.listen({1, 5000});
  bool server_saw_eof = false;
  Time eof_at = -1;
  engine.spawn("server", [](Engine& e, Listener& l, bool& eof, Time& at) -> Task<void> {
    SocketPtr s = co_await l.accept();
    auto m = co_await s->recv();
    eof = !m.has_value();
    at = e.now();
  }(engine, *listener, server_saw_eof, eof_at));
  sim::ActorId client = engine.spawn("client", [](Network& net) -> Task<void> {
    SocketPtr s = co_await net.connect(0, {1, 5000});
    co_await sim::delay(sim::seconds(100));  // hold the socket, send nothing
    s->send(Message("never"));
  }(net));
  engine.call_at(sim::seconds(3), [&] { engine.kill(client); });
  engine.run();
  EXPECT_TRUE(server_saw_eof);
  EXPECT_GE(eof_at, sim::seconds(3));
  EXPECT_LT(eof_at, sim::seconds(4));
}

TEST_F(SocketTest, ListenerCloseUnbindsPort) {
  {
    auto listener = net.listen({1, 5000});
    EXPECT_EQ(net.listener_count(), 1u);
    EXPECT_THROW((void)net.listen({1, 5000}), std::invalid_argument);
  }
  EXPECT_EQ(net.listener_count(), 0u);
  auto rebound = net.listen({1, 5000});
  EXPECT_EQ(net.listener_count(), 1u);
}

TEST_F(SocketTest, ListenerCloseWakesPendingAcceptWithNull) {
  auto listener = net.listen({1, 5000});
  bool woke_null = false;
  Time woke_at = -1;
  engine.spawn("server", [](Engine& e, Listener& l, bool& null, Time& at)
                   -> Task<void> {
    SocketPtr s = co_await l.accept();
    null = s == nullptr;
    at = e.now();
  }(engine, *listener, woke_null, woke_at));
  engine.call_at(sim::seconds(2), [&] { listener->close(); });
  engine.run();
  EXPECT_TRUE(woke_null);
  EXPECT_EQ(woke_at, sim::seconds(2));
  EXPECT_EQ(net.listener_count(), 0u);
}

TEST_F(SocketTest, RecvOnLocallyClosedSocketReturnsNulloptAtOnce) {
  auto listener = net.listen({1, 5000});
  engine.spawn("server", [](Listener& l) -> Task<void> {
    SocketPtr s = co_await l.accept();
    s->send(Message("late"));  // must not reach a reader that closed
    co_await sim::delay(sim::seconds(10));
  }(*listener));
  bool got_nullopt = false;
  Time done_at = -1;
  engine.spawn("client", [](Engine& e, Network& net, bool& plain,
                            Time& at) -> Task<void> {
    SocketPtr s = co_await net.connect(0, {1, 5000});
    co_await sim::delay(sim::seconds(1));  // "late" is buffered by now
    s->close();
    const Time closed_at = e.now();
    plain = !(co_await s->recv()).has_value();
    at = e.now() - closed_at;
  }(engine, net, got_nullopt, done_at));
  engine.run();
  EXPECT_TRUE(got_nullopt);
  EXPECT_EQ(done_at, 0);  // the receive did not suspend
}

TEST_F(SocketTest, ConnectionRegistryStaysBoundedByLiveConnections) {
  // Every connection is on the network's list for reset_node while its
  // block lives, and a block unlinks itself when it is freed: after many
  // short-lived connections the list holds exactly the live ones, all
  // still reachable by reset_node.
  auto listener = net.listen({1, 5000});
  engine.spawn("server", [](Listener& l) -> Task<void> {
    for (;;) {
      SocketPtr s = co_await l.accept();
      if (!s) co_return;  // dropping `s` closes the server end
    }
  }(*listener));
  std::vector<SocketPtr> held;
  engine.spawn("client", [](Network& net, std::vector<SocketPtr>& held)
                   -> Task<void> {
    for (int i = 0; i < 2000; ++i) {
      SocketPtr s = co_await net.connect(0, {1, 5000});
      if (i % 10 == 0) held.push_back(std::move(s));  // 200 stay open
    }
  }(net, held));
  engine.run();
  ASSERT_EQ(held.size(), 200u);
  EXPECT_EQ(net.connection_count(), held.size());
  EXPECT_EQ(net.reset_node(1), held.size());
}

TEST_F(SocketTest, ArenaDrainsWhenReaderClosesMidBatch) {
  // A burst of sends is parked in the message arena as one FIFO chain per
  // pipe; if the reader closes its end partway through, the undelivered
  // tail must vanish RST-like at flush time (never delivered out of order,
  // never leaked in the slab).
  auto listener = net.listen({1, 5000});
  std::vector<std::string> got;
  engine.spawn("server", [](Listener& l, std::vector<std::string>& got)
                   -> Task<void> {
    SocketPtr s = co_await l.accept();
    auto m = co_await s->recv();
    EXPECT_TRUE(m.has_value());
    if (m) got.push_back(m->tag);
    s->close();  // three more messages are still parked or in flight
  }(*listener, got));
  engine.spawn("client", [](Network& net) -> Task<void> {
    SocketPtr s = co_await net.connect(0, {1, 5000});
    s->send(Message("a"));
    s->send(Message("b"));
    s->send(Message("c"));
    s->send(Message("d"));
    co_await sim::delay(sim::seconds(1));  // keep our end open past EOF
  }(net));
  engine.run();
  // Only the pre-close prefix arrived, in order.
  EXPECT_EQ(got, (std::vector<std::string>{"a"}));
  // Every parked slot was released — delivered, vanished, or freed by the
  // pipe teardown — so the arena holds no message bytes.
  EXPECT_EQ(net.arena().in_flight(), 0u);
  EXPECT_GE(net.arena().flushes(), 1u);
}

TEST_F(SocketTest, SendSyncWaitsForSerialization) {
  auto listener = net.listen({1, 5000});
  engine.spawn("server", [](Listener& l) -> Task<void> {
    SocketPtr s = co_await l.accept();
    (void)co_await s->recv();
  }(*listener));
  Time sent_done = -1;
  engine.spawn("client", [](Engine& e, Network& net, Time& done) -> Task<void> {
    SocketPtr s = co_await net.connect(0, {1, 5000});
    // 125 MB at 125 MB/s = 1 s of wire occupancy.
    co_await s->send_sync(Message("bulk", {}, 125'000'000));
    done = e.now();
  }(engine, net, sent_done));
  engine.run();
  EXPECT_GE(sent_done, sim::seconds(1));
  EXPECT_LT(sent_done, sim::seconds(1) + sim::milliseconds(10));
}

}  // namespace
}  // namespace jets::net
