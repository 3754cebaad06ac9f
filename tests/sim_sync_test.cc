// Unit tests for Gate, Channel, Semaphore, Permit, Rng, and the stats types.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/sim.hh"

namespace jets::sim {
namespace {

TEST(Gate, ReleasesAllWaitersWhenOpened) {
  Engine e;
  Gate gate(e);
  int released = 0;
  for (int i = 0; i < 3; ++i) {
    e.spawn("w", [](Gate& g, int& released) -> Task<void> {
      co_await g.wait();
      ++released;
    }(gate, released));
  }
  e.call_at(seconds(2), [&] { gate.open(); });
  e.run();
  EXPECT_EQ(released, 3);
  EXPECT_EQ(e.now(), seconds(2));
}

TEST(Gate, OpenGateDoesNotBlock) {
  Engine e;
  Gate gate(e);
  gate.open();
  Time at = -1;
  e.spawn("w", [](Engine& e, Gate& g, Time& at) -> Task<void> {
    co_await g.wait();
    at = e.now();
  }(e, gate, at));
  e.run();
  EXPECT_EQ(at, 0);
}

TEST(Gate, CloseRearms) {
  Engine e;
  Gate gate(e);
  gate.open();
  gate.close();
  EXPECT_FALSE(gate.is_open());
  bool released = false;
  e.spawn("w", [](Gate& g, bool& released) -> Task<void> {
    co_await g.wait();
    released = true;
  }(gate, released));
  e.run_until(seconds(1));
  EXPECT_FALSE(released);
}

TEST(Channel, BufferedValueIsImmediate) {
  Engine e;
  Channel<int> ch(e);
  ch.push(42);
  std::optional<int> got;
  e.spawn("r", [](Channel<int>& ch, std::optional<int>& got) -> Task<void> {
    got = co_await ch.recv();
  }(ch, got));
  e.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 42);
}

TEST(Channel, ReceiverBlocksUntilPush) {
  Engine e;
  Channel<int> ch(e);
  Time recv_at = -1;
  e.spawn("r", [](Engine& e, Channel<int>& ch, Time& at) -> Task<void> {
    auto v = co_await ch.recv();
    EXPECT_TRUE(v.has_value());
    at = e.now();
  }(e, ch, recv_at));
  e.call_at(seconds(3), [&] { ch.push(7); });
  e.run();
  EXPECT_EQ(recv_at, seconds(3));
}

TEST(Channel, FifoDeliveryAcrossMultipleReceivers) {
  Engine e;
  Channel<int> ch(e);
  std::vector<int> got;
  for (int i = 0; i < 3; ++i) {
    e.spawn("r", [](Channel<int>& ch, std::vector<int>& got) -> Task<void> {
      auto v = co_await ch.recv();
      EXPECT_TRUE(v.has_value());
      if (v) got.push_back(*v);
    }(ch, got));
  }
  e.call_at(seconds(1), [&] {
    ch.push(10);
    ch.push(20);
    ch.push(30);
  });
  e.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(Channel, CloseWakesWaitersWithNullopt) {
  Engine e;
  Channel<int> ch(e);
  bool got_nullopt = false;
  e.spawn("r", [](Channel<int>& ch, bool& flag) -> Task<void> {
    auto v = co_await ch.recv();
    flag = !v.has_value();
  }(ch, got_nullopt));
  e.call_at(seconds(1), [&] { ch.close(); });
  e.run();
  EXPECT_TRUE(got_nullopt);
}

TEST(Channel, DrainsBufferAfterClose) {
  Engine e;
  Channel<int> ch(e);
  ch.push(1);
  ch.close();
  std::vector<std::optional<int>> got;
  e.spawn("r", [](Channel<int>& ch, std::vector<std::optional<int>>& got) -> Task<void> {
    got.push_back(co_await ch.recv());
    got.push_back(co_await ch.recv());
  }(ch, got));
  e.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::optional<int>(1));
  EXPECT_EQ(got[1], std::nullopt);
}

TEST(Channel, PushSkipsKilledWaiters) {
  Engine e;
  Channel<int> ch(e);
  std::optional<int> got;
  ActorId victim = e.spawn("victim", [](Channel<int>& ch) -> Task<void> {
    auto v = co_await ch.recv();
    ADD_FAILURE() << "killed receiver got value " << (v ? *v : -1);
  }(ch));
  e.spawn("survivor", [](Channel<int>& ch, std::optional<int>& got) -> Task<void> {
    got = co_await ch.recv();
  }(ch, got));
  e.call_at(seconds(1), [&] { e.kill(victim); });
  e.call_at(seconds(2), [&] { ch.push(5); });
  e.run();
  EXPECT_EQ(got, std::optional<int>(5));
}

TEST(Channel, KilledReceiverIsSkippedInFifoOrder) {
  // Waiters are intrusive nodes in their suspended frames; killing one
  // unlinks it, and the values go to the survivors in arrival order.
  Engine e;
  Channel<int> ch(e);
  std::vector<std::pair<int, int>> got;  // (receiver, value)
  std::vector<ActorId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(e.spawn("r", [](Channel<int>& ch, int me,
                                  std::vector<std::pair<int, int>>& got)
                                   -> Task<void> {
      auto v = co_await ch.recv();
      if (v) got.emplace_back(me, *v);
    }(ch, i, got)));
  }
  e.call_at(seconds(1), [&] { e.kill(ids[0]); });
  e.call_at(seconds(2), [&] {
    ch.push(10);
    ch.push(20);
    ch.push(30);  // no waiter left: buffered
  });
  e.run();
  EXPECT_EQ(got, (std::vector<std::pair<int, int>>{{1, 10}, {2, 20}}));
  EXPECT_EQ(ch.size(), 1u);
}

TEST(Channel, DestroyedUnderBlockedReceiverIsSafe) {
  // The channel dies first: it detaches its waiters, so the later kill of
  // the blocked receiver touches no freed memory (checked under ASan).
  Engine e;
  auto ch = std::make_unique<Channel<int>>(e);
  ActorId blocked = e.spawn("blocked", [](Channel<int>& ch) -> Task<void> {
    (void)co_await ch.recv();
    ADD_FAILURE() << "receiver on a destroyed channel resumed";
  }(*ch));
  e.call_at(seconds(1), [&] { ch.reset(); });
  e.call_at(seconds(2), [&] { e.kill(blocked); });
  e.run();
  EXPECT_EQ(e.live_actor_count(), 0u);
}

TEST(Semaphore, LimitsConcurrency) {
  Engine e;
  Semaphore sem(e, 2);
  int concurrent = 0;
  int peak = 0;
  for (int i = 0; i < 6; ++i) {
    e.spawn("w", [](Semaphore& sem, int& concurrent, int& peak) -> Task<void> {
      co_await sem.acquire();
      ++concurrent;
      peak = std::max(peak, concurrent);
      co_await delay(seconds(1));
      --concurrent;
      sem.release();
    }(sem, concurrent, peak));
  }
  e.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(e.now(), seconds(3));  // 6 jobs, 2 wide, 1 s each
  EXPECT_EQ(sem.available(), 2u);
}

TEST(Semaphore, KilledWaiterDoesNotConsumePermit) {
  Engine e;
  Semaphore sem(e, 1);
  bool survivor_ran = false;
  // Holder takes the permit for 10 s.
  e.spawn("holder", [](Semaphore& sem) -> Task<void> {
    co_await sem.acquire();
    co_await delay(seconds(10));
    sem.release();
  }(sem));
  ActorId victim = e.spawn("victim", [](Semaphore& sem) -> Task<void> {
    co_await sem.acquire();
    ADD_FAILURE() << "victim acquired";
    sem.release();
  }(sem));
  e.spawn("survivor", [](Semaphore& sem, bool& ran) -> Task<void> {
    co_await sem.acquire();
    ran = true;
    sem.release();
  }(sem, survivor_ran));
  e.call_at(seconds(1), [&] { e.kill(victim); });
  e.run();
  EXPECT_TRUE(survivor_ran);
  EXPECT_EQ(sem.available(), 1u);
}

TEST(Semaphore, GrantToKilledWaiterPassesToNext) {
  // The holder hands its permit to the first waiter and kills it before it
  // resumes: the granted-but-unconsumed permit moves on to the next
  // waiter instead of leaking.
  Engine e;
  Semaphore sem(e, 1);
  ActorId first = 0;
  bool second_ran = false;
  e.spawn("holder", [](Engine& e, Semaphore& sem, ActorId& first) -> Task<void> {
    co_await sem.acquire();
    co_await delay(seconds(1));
    sem.release();  // granted to `first`, whose resumption is queued
    e.kill(first);
  }(e, sem, first));
  first = e.spawn("first", [](Semaphore& sem) -> Task<void> {
    co_await sem.acquire();
    ADD_FAILURE() << "killed waiter resumed";
    sem.release();
  }(sem));
  e.spawn("second", [](Semaphore& sem, bool& ran) -> Task<void> {
    co_await sem.acquire();
    ran = true;
    sem.release();
  }(sem, second_ran));
  e.run();
  EXPECT_TRUE(second_ran);
  EXPECT_EQ(sem.available(), 1u);
  EXPECT_EQ(sem.waiting(), 0u);
}

TEST(Semaphore, PermitGrantedToAKilledWaiterPassesToNext) {
  // As GrantToKilledWaiterPassesToNext, through Permit guards: the killed
  // waiter's awaiter was handed the permit but never resumed with it.
  Engine e;
  Semaphore sem(e, 1);
  ActorId first = 0;
  bool second_ran = false;
  e.spawn("holder", [](Engine& e, Semaphore& sem, ActorId& first) -> Task<void> {
    {
      Permit p = co_await Permit::acquire(sem);
      co_await delay(seconds(1));
    }  // granted to `first`, whose resumption is queued
    e.kill(first);
  }(e, sem, first));
  first = e.spawn("first", [](Semaphore& sem) -> Task<void> {
    Permit p = co_await Permit::acquire(sem);
    ADD_FAILURE() << "killed waiter resumed";
  }(sem));
  e.spawn("second", [](Semaphore& sem, bool& ran) -> Task<void> {
    Permit p = co_await Permit::acquire(sem);
    ran = true;
  }(sem, second_ran));
  e.run();
  EXPECT_TRUE(second_ran);
  EXPECT_EQ(sem.available(), 1u);
  EXPECT_EQ(sem.waiting(), 0u);
}

TEST(Semaphore, PermitGuardReleasesOnKill) {
  Engine e;
  Semaphore sem(e, 1);
  ActorId holder = e.spawn("holder", [](Semaphore& sem) -> Task<void> {
    Permit p = co_await Permit::acquire(sem);
    co_await delay(seconds(100));
  }(sem));
  e.call_at(seconds(1), [&] { e.kill(holder); });
  e.run();
  EXPECT_EQ(sem.available(), 1u);
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng a(42);
  Rng b(42);
  EXPECT_EQ(a.fork("x").uniform_int(0, 1 << 30),
            b.fork("x").uniform_int(0, 1 << 30));
  EXPECT_NE(a.fork("x").uniform_int(0, 1 << 30),
            a.fork("y").uniform_int(0, 1 << 30));
}

TEST(Rng, LognormalMedianRoughlyCorrect) {
  Rng rng(7);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(rng.lognormal_median(100.0, 0.2));
  EXPECT_NEAR(s.quantile(0.5), 100.0, 2.0);
  EXPECT_GT(s.max(), 140.0);  // long tail exists
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);  // clamps into bin 0
  h.add(0.5);
  h.add(9.9);
  h.add(25.0);  // clamps into last bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(TimeSeries, DownsampleKeepsEndpoints) {
  TimeSeries ts;
  for (int i = 0; i <= 100; ++i) ts.add(seconds(i), i);
  TimeSeries ds = ts.downsample(10);
  ASSERT_LE(ds.size(), 11u);
  EXPECT_EQ(ds.points().front().second, 0.0);
  EXPECT_EQ(ds.points().back().second, 100.0);
}

}  // namespace
}  // namespace jets::sim
