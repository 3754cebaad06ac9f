// Property tests for the network layer: torus geometry invariants across
// shapes, and socket stream properties under randomized traffic.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "net/fabric.hh"
#include "net/socket.hh"
#include "sim/sim.hh"

namespace jets::net {
namespace {

using sim::Engine;
using sim::Rng;
using sim::Task;

// --- Torus geometry ------------------------------------------------------------

class TorusShapeTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, unsigned>> {
 protected:
  TorusShape shape() const {
    const auto [x, y, z] = GetParam();
    return TorusShape{x, y, z};
  }
};

TEST_P(TorusShapeTest, HopsAreSymmetricAndZeroOnDiagonal) {
  const TorusShape s = shape();
  Rng rng(s.size());
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, s.size() - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, s.size() - 1));
    EXPECT_EQ(s.hops(a, b), s.hops(b, a));
    EXPECT_EQ(s.hops(a, a), 0u);
  }
}

TEST_P(TorusShapeTest, HopsAreBoundedByHalfPerimeter) {
  const TorusShape s = shape();
  const auto [x, y, z] = GetParam();
  const unsigned bound = x / 2 + y / 2 + z / 2;
  Rng rng(s.size() + 1);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, s.size() - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, s.size() - 1));
    EXPECT_LE(s.hops(a, b), bound);
  }
}

TEST_P(TorusShapeTest, TriangleInequalityHolds) {
  const TorusShape s = shape();
  Rng rng(s.size() + 2);
  for (int i = 0; i < 100; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, s.size() - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, s.size() - 1));
    const auto c = static_cast<NodeId>(rng.uniform_int(0, s.size() - 1));
    EXPECT_LE(s.hops(a, c), s.hops(a, b) + s.hops(b, c));
  }
}

TEST_P(TorusShapeTest, NeighboursAreOneHop) {
  const TorusShape s = shape();
  const auto [x, y, z] = GetParam();
  if (x > 1) {
    EXPECT_EQ(s.hops(0, 1), 1u);
  }
  if (y > 1) {
    EXPECT_EQ(s.hops(0, x), 1u);
  }
  if (z > 1) {
    EXPECT_EQ(s.hops(0, x * y), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TorusShapeTest,
                         ::testing::Values(std::make_tuple(8u, 8u, 16u),
                                           std::make_tuple(4u, 4u, 4u),
                                           std::make_tuple(2u, 2u, 2u),
                                           std::make_tuple(1u, 8u, 8u),
                                           std::make_tuple(16u, 2u, 4u)));

// --- Socket stream properties ---------------------------------------------------

class SocketStreamTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SocketStreamTest, RandomTrafficIsFifoCompleteAndEofTerminated) {
  Engine engine;
  Network net(engine, std::make_shared<EthernetFabric>());
  auto listener = net.listen({1, 4000});
  Rng rng(GetParam());
  const int messages = 30 + static_cast<int>(GetParam() % 70);

  std::vector<std::size_t> sent_sizes;
  for (int i = 0; i < messages; ++i) {
    sent_sizes.push_back(
        static_cast<std::size_t>(rng.uniform_int(0, 1 << 20)));
  }

  std::vector<std::pair<int, std::size_t>> received;  // (seq, payload)
  bool eof = false;
  engine.spawn("server", [](Listener& l, std::vector<std::pair<int, std::size_t>>& got,
                            bool& eof) -> Task<void> {
    SocketPtr s = co_await l.accept();
    for (;;) {
      auto m = co_await s->recv();
      if (!m) {
        eof = true;
        co_return;
      }
      got.emplace_back(std::stoi(m->args.at(0)), m->payload_bytes);
    }
  }(*listener, received, eof));

  engine.spawn("client", [](Network& net, Rng rng,
                            std::vector<std::size_t> sizes) -> Task<void> {
    SocketPtr s = co_await net.connect(0, {1, 4000});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      co_await sim::delay(rng.uniform_duration(0, sim::milliseconds(20)));
      s->send(Message("m", {std::to_string(i)}, sizes[i]));
    }
    s->close();
  }(net, rng.fork("client"), sent_sizes));

  engine.run();
  EXPECT_TRUE(eof);
  ASSERT_EQ(received.size(), sent_sizes.size());
  for (std::size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i].first, static_cast<int>(i));         // FIFO
    EXPECT_EQ(received[i].second, sent_sizes[i]);              // intact
  }
}

TEST_P(SocketStreamTest, FullDuplexTrafficDoesNotInterfere) {
  Engine engine;
  Network net(engine, std::make_shared<EthernetFabric>());
  auto listener = net.listen({1, 4000});
  const int n = 20 + static_cast<int>(GetParam() % 20);
  std::vector<int> a_got, b_got;
  engine.spawn("server", [](Listener& l, int n, std::vector<int>& got) -> Task<void> {
    SocketPtr s = co_await l.accept();
    for (int i = 0; i < n; ++i) s->send(Message("s", {std::to_string(i)}));
    for (;;) {
      auto m = co_await s->recv();
      if (!m) co_return;
      got.push_back(std::stoi(m->args.at(0)));
    }
  }(*listener, n, a_got));
  engine.spawn("client", [](Network& net, int n, std::vector<int>& got) -> Task<void> {
    SocketPtr s = co_await net.connect(0, {1, 4000});
    for (int i = 0; i < n; ++i) s->send(Message("c", {std::to_string(i)}));
    for (int i = 0; i < n; ++i) {
      auto m = co_await s->recv();
      if (!m) break;
      got.push_back(std::stoi(m->args.at(0)));
    }
    s->close();
  }(net, n, b_got));
  engine.run();
  ASSERT_EQ(a_got.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(b_got.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(a_got[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(b_got[static_cast<std::size_t>(i)], i);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SocketStreamTest,
                         ::testing::Values<std::uint64_t>(1, 23, 456, 7890));

// --- Fabric monotonicity ----------------------------------------------------------

TEST(FabricProperty, TransferTimeMonotoneInSize) {
  for (const Fabric* f :
       std::initializer_list<const Fabric*>{
           new EthernetFabric(), new TorusTcpFabric(), new TorusNativeFabric()}) {
    sim::Duration prev = -1;
    for (std::size_t bytes = 1; bytes <= (1u << 24); bytes <<= 4) {
      const sim::Duration t = f->transfer_time(0, 1, bytes);
      EXPECT_GE(t, prev);
      prev = t;
    }
    delete f;
  }
}

}  // namespace
}  // namespace jets::net
