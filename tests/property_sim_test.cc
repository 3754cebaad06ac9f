// Property-based and parameterized tests for the simulation substrate:
// determinism, conservation laws, and invariants under randomized
// workloads and kills.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "os/fairshare.hh"
#include "sim/sim.hh"

namespace jets::sim {
namespace {

// --- Determinism ---------------------------------------------------------------

class DeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

struct RunTrace {
  Time end_time = 0;
  std::uint64_t events = 0;
  std::vector<int> order;
};

RunTrace random_workload(std::uint64_t seed) {
  RunTrace trace;
  Engine e;
  Rng rng(seed);
  Channel<int> ch(e);
  const int n = 20 + static_cast<int>(seed % 30);
  for (int i = 0; i < n; ++i) {
    const Duration d = rng.uniform_duration(0, seconds(3));
    e.spawn("p", [](Duration d, int i, Channel<int>& ch) -> Task<void> {
      co_await delay(d);
      ch.push(i);
    }(d, i, ch));
  }
  e.spawn("consumer", [](int n, Channel<int>& ch, RunTrace& t) -> Task<void> {
    for (int i = 0; i < n; ++i) {
      auto v = co_await ch.recv();
      if (v) t.order.push_back(*v);
    }
  }(n, ch, trace));
  trace.end_time = e.run();
  trace.events = e.events_executed();
  return trace;
}

TEST_P(DeterminismTest, IdenticalRunsProduceIdenticalTraces) {
  const RunTrace a = random_workload(GetParam());
  const RunTrace b = random_workload(GetParam());
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.order, b.order);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

// --- Channel conservation ---------------------------------------------------------

class ChannelPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelPropertyTest, EveryPushIsReceivedExactlyOnceInOrder) {
  Engine e;
  Rng rng(GetParam());
  Channel<int> ch(e);
  const int pushes = 50 + static_cast<int>(GetParam() % 100);
  const int consumers = 1 + static_cast<int>(GetParam() % 5);
  // Single producer: FIFO order must be globally preserved across any
  // number of consumers (delivery order == push order).
  std::vector<Time> push_times;
  for (int i = 0; i < pushes; ++i) {
    push_times.push_back(rng.uniform_duration(0, seconds(10)));
  }
  std::sort(push_times.begin(), push_times.end());
  for (int i = 0; i < pushes; ++i) {
    e.call_at(push_times[static_cast<std::size_t>(i)], [&ch, i] { ch.push(i); });
  }
  std::vector<int> got;
  for (int c = 0; c < consumers; ++c) {
    e.spawn("consumer", [](Channel<int>& ch, std::vector<int>& got) -> Task<void> {
      for (;;) {
        auto v = co_await ch.recv();
        if (!v) co_return;
        got.push_back(*v);
      }
    }(ch, got));
  }
  e.call_at(seconds(11), [&ch] { ch.close(); });
  e.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(pushes));
  for (int i = 0; i < pushes; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelPropertyTest,
                         ::testing::Values(3u, 17u, 256u, 4096u));

// --- Semaphore invariants ------------------------------------------------------------

class SemaphorePropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(SemaphorePropertyTest, PermitsConservedUnderRandomKills) {
  const auto [permits, actors] = GetParam();
  Engine e;
  Rng rng(permits * 31 + static_cast<std::uint64_t>(actors));
  Semaphore sem(e, permits);
  std::vector<ActorId> ids;
  int completed = 0;
  std::size_t peak_in_use = 0;
  for (int i = 0; i < actors; ++i) {
    ids.push_back(e.spawn(
        "w", [](Semaphore& sem, std::size_t permits, Duration hold,
                int& completed, std::size_t& peak) -> Task<void> {
          Permit p = co_await Permit::acquire(sem);
          // Concurrency observed through the semaphore itself, so kills
          // cannot skew the bookkeeping.
          peak = std::max(peak, permits - sem.available());
          co_await delay(hold);
          ++completed;
        }(sem, permits, rng.uniform_duration(milliseconds(100), seconds(1)),
          completed, peak_in_use)));
  }
  // Kill a third of them at random times (waiters and holders alike).
  for (int i = 0; i < actors / 3; ++i) {
    const auto victim =
        ids[static_cast<std::size_t>(rng.uniform_int(0, actors - 1))];
    e.call_at(rng.uniform_duration(milliseconds(1), seconds(1)),
              [&e, victim] { e.kill(victim); });
  }
  e.run();
  // Whatever happened, all permits must be back and nobody left waiting.
  EXPECT_EQ(sem.available(), permits);
  EXPECT_EQ(sem.waiting(), 0u);
  EXPECT_LE(peak_in_use, permits);
  EXPECT_GT(completed, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SemaphorePropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 3, 8),
                       ::testing::Values(6, 20, 50)));

// --- Fair-share conservation -------------------------------------------------------

class FairSharePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(FairSharePropertyTest, WorkIsConservedAndNobodyFinishesEarly) {
  const auto [streams, seed] = GetParam();
  constexpr double kBw = 1e6;
  Engine e;
  Rng rng(seed);
  os::FairShareServer srv(e, kBw);
  std::uint64_t total_bytes = 0;
  std::vector<std::uint64_t> sizes;
  for (int i = 0; i < streams; ++i) {
    const auto bytes = static_cast<std::uint64_t>(
        rng.uniform_int(10'000, 2'000'000));
    sizes.push_back(bytes);
    total_bytes += bytes;
  }
  std::vector<double> finish(static_cast<std::size_t>(streams), -1);
  for (int i = 0; i < streams; ++i) {
    const Duration start = rng.uniform_duration(0, seconds(1));
    e.spawn("t", [](Engine& e, os::FairShareServer& srv, Duration start,
                    std::uint64_t bytes, double& fin) -> Task<void> {
      co_await delay(start);
      co_await srv.transfer(bytes);
      fin = to_seconds(e.now());
    }(e, srv, start, sizes[static_cast<std::size_t>(i)],
      finish[static_cast<std::size_t>(i)]));
  }
  const double end = to_seconds(e.run());
  // Conservation: the server cannot move total_bytes faster than kBw.
  EXPECT_GE(end + 1e-9, static_cast<double>(total_bytes) / kBw);
  // And no single transfer beats its own solo time.
  for (int i = 0; i < streams; ++i) {
    EXPECT_GE(finish[static_cast<std::size_t>(i)] + 1e-9,
              static_cast<double>(sizes[static_cast<std::size_t>(i)]) / kBw);
  }
  EXPECT_EQ(srv.active_transfers(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FairSharePropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 7, 25),
                       ::testing::Values<std::uint64_t>(5, 77)));

}  // namespace
}  // namespace jets::sim
