// Unit tests for the discrete-event engine and coroutine task machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/engine.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace jets::sim {
namespace {

TEST(Time, ConversionsRoundTrip) {
  EXPECT_EQ(seconds(3), 3 * kSecond);
  EXPECT_EQ(milliseconds(1500), from_seconds(1.5));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(42)), 42.0);
  EXPECT_EQ(from_seconds(0.5), 500 * kMillisecond);
  EXPECT_EQ(from_seconds(1e-9), 1);
}

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.run(), 0);
  EXPECT_EQ(e.events_executed(), 0u);
}

TEST(Engine, DelayAdvancesClock) {
  Engine e;
  Time observed = -1;
  e.spawn("t", [](Engine& e, Time& observed) -> Task<void> {
    co_await delay(seconds(5));
    observed = e.now();
  }(e, observed));
  e.run();
  EXPECT_EQ(observed, seconds(5));
  EXPECT_EQ(e.now(), seconds(5));
}

TEST(Engine, SequentialDelaysAccumulate) {
  Engine e;
  std::vector<Time> marks;
  e.spawn("t", [](Engine& e, std::vector<Time>& marks) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await delay(milliseconds(100));
      marks.push_back(e.now());
    }
  }(e, marks));
  e.run();
  ASSERT_EQ(marks.size(), 3u);
  EXPECT_EQ(marks[0], milliseconds(100));
  EXPECT_EQ(marks[1], milliseconds(200));
  EXPECT_EQ(marks[2], milliseconds(300));
}

TEST(Engine, EqualTimeEventsRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    e.spawn("t", [](int i, std::vector<int>& order) -> Task<void> {
      co_await delay(seconds(1));
      order.push_back(i);
    }(i, order));
  }
  e.run();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, NestedTasksPropagateContextAndValues) {
  Engine e;
  int result = 0;
  e.spawn("t", [](Engine& e, int& result) -> Task<void> {
    auto inner = [](Engine& e) -> Task<int> {
      co_await delay(seconds(2));
      co_return static_cast<int>(to_seconds(e.now()));
    };
    result = co_await inner(e);
    result += co_await inner(e);
  }(e, result));
  e.run();
  EXPECT_EQ(result, 2 + 4);
  EXPECT_EQ(e.now(), seconds(4));
}

TEST(Engine, JoinWaitsForCompletion) {
  Engine e;
  Time joined_at = -1;
  ActorId worker = e.spawn("worker", []() -> Task<void> {
    co_await delay(seconds(7));
  }());
  e.spawn("joiner", [](Engine& e, ActorId worker, Time& t) -> Task<void> {
    co_await e.join(worker);
    t = e.now();
  }(e, worker, joined_at));
  e.run();
  EXPECT_EQ(joined_at, seconds(7));
  EXPECT_FALSE(e.is_live(worker));
}

TEST(Engine, KilledJoinerIsNeverResumedAndLiveJoinersWakeInJoinOrder) {
  Engine e;
  ActorId worker = e.spawn("worker", []() -> Task<void> {
    co_await delay(seconds(7));
  }());
  std::vector<int> woke;
  std::vector<ActorId> joiners;
  for (int i = 0; i < 4; ++i) {
    joiners.push_back(e.spawn(
        "joiner", [](Engine& e, ActorId worker, int i,
                     std::vector<int>& woke) -> Task<void> {
          co_await e.join(worker);
          woke.push_back(i);
        }(e, worker, i, woke)));
  }
  e.run_until(seconds(1));  // every joiner is parked on the join
  EXPECT_TRUE(e.kill(joiners[1]));
  e.run();
  EXPECT_EQ(woke, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(e.now(), seconds(7));
  EXPECT_EQ(e.live_actor_count(), 0u);
}

TEST(Engine, JoinOnFinishedActorIsImmediate) {
  Engine e;
  ActorId a = e.spawn("quick", []() -> Task<void> { co_return; }());
  e.run();
  bool resumed = false;
  e.spawn("joiner", [](Engine& e, ActorId a, bool& resumed) -> Task<void> {
    co_await e.join(a);
    resumed = true;
  }(e, a, resumed));
  e.run();
  EXPECT_TRUE(resumed);
}

TEST(Engine, KillPreventsFurtherExecution) {
  Engine e;
  int steps = 0;
  ActorId victim = e.spawn("victim", [](int& steps) -> Task<void> {
    for (;;) {
      co_await delay(seconds(1));
      ++steps;
    }
  }(steps));
  e.call_at(seconds(3) + 1, [&] { e.kill(victim); });
  e.run();
  EXPECT_EQ(steps, 3);
  EXPECT_FALSE(e.is_live(victim));
}

TEST(Engine, KillRunsFrameDestructors) {
  struct Sentinel {
    bool* flag;
    explicit Sentinel(bool* f) : flag(f) {}
    ~Sentinel() { *flag = true; }
  };
  Engine e;
  bool destroyed = false;
  ActorId a = e.spawn("holder", [](bool* flag) -> Task<void> {
    Sentinel s(flag);
    co_await delay(seconds(100));
  }(&destroyed));
  e.call_at(seconds(1), [&] { e.kill(a); });
  e.run();
  EXPECT_TRUE(destroyed);
}

TEST(Engine, KillTearsDownNestedFrames) {
  struct Sentinel {
    int* n;
    explicit Sentinel(int* n) : n(n) {}
    ~Sentinel() { ++*n; }
  };
  Engine e;
  int destroyed = 0;
  ActorId a = e.spawn("outer", [](int* n) -> Task<void> {
    Sentinel outer(n);
    auto mid = [](int* n) -> Task<void> {
      Sentinel mid(n);
      auto inner = [](int* n) -> Task<void> {
        Sentinel inner(n);
        co_await delay(seconds(100));
      };
      co_await inner(n);
    };
    co_await mid(n);
  }(&destroyed));
  e.call_at(seconds(1), [&] { e.kill(a); });
  e.run();
  EXPECT_EQ(destroyed, 3);
}

TEST(Engine, SelfKillIsDeferredAndSafe) {
  Engine e;
  bool after_kill_ran = false;
  e.spawn("suicidal", [](Engine& e, bool& after) -> Task<void> {
    auto* ctx = co_await current_context();
    co_await delay(seconds(1));
    e.kill(ctx->id);
    after = true;  // still executing in the (marked-dead) frame
    co_await delay(seconds(1));
    ADD_FAILURE() << "resumed after self-kill";
  }(e, after_kill_ran));
  e.run();
  EXPECT_TRUE(after_kill_ran);
  EXPECT_EQ(e.live_actor_count(), 0u);
}

TEST(Engine, KillUnknownActorReturnsFalse) {
  Engine e;
  EXPECT_FALSE(e.kill(12345));
}

TEST(Engine, CallAtTimersFireInOrder) {
  Engine e;
  std::vector<int> order;
  e.call_at(seconds(2), [&] { order.push_back(2); });
  e.call_at(seconds(1), [&] { order.push_back(1); });
  e.call_at(seconds(3), [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, CancelledTimerDoesNotFire) {
  Engine e;
  bool fired = false;
  TimerHandle h = e.call_at(seconds(1), [&] { fired = true; });
  h.cancel();
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelReleasesClosureEagerly) {
  // A cancelled timer must not keep its captures alive until the dead
  // event would have surfaced at the top of the heap: liveness/retry
  // timers are cancelled by the thousands with far-future deadlines.
  Engine e;
  auto sentinel = std::make_shared<int>(42);
  TimerHandle h = e.call_at(seconds(1000), [keep = sentinel] { (void)keep; });
  EXPECT_EQ(sentinel.use_count(), 2);
  h.cancel();
  EXPECT_EQ(sentinel.use_count(), 1);  // released on cancel, not at pop
  e.run();
  EXPECT_EQ(e.events_executed(), 0u);
}

TEST(Engine, CancelIsIdempotentAndSafeAfterFire) {
  Engine e;
  int fired = 0;
  TimerHandle h = e.call_at(seconds(1), [&] { ++fired; });
  TimerHandle copy = h;
  e.run();
  EXPECT_EQ(fired, 1);
  h.cancel();  // after fire: generation mismatch, no-op
  copy.cancel();
  h.cancel();  // double cancel
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.cancelled_events(), 0u);
}

TEST(Engine, MassCancellationKeepsHeapBounded) {
  // A storm of armed-then-cancelled timers (the liveness/retry pattern)
  // must neither hold live event slots nor let dead index entries pile up
  // beyond the compaction threshold's working band.
  Engine e;
  std::size_t max_heap = 0;
  e.spawn("churn", [](Engine& e, std::size_t& max_heap) -> Task<void> {
    std::vector<TimerHandle> handles;
    for (int round = 0; round < 200; ++round) {
      for (int k = 0; k < 64; ++k) {
        handles.push_back(e.call_in(seconds(1000), [] {}));
      }
      for (TimerHandle& h : handles) h.cancel();
      handles.clear();
      max_heap = std::max(max_heap, e.heap_size());
      co_await delay(microseconds(1));
    }
  }(e, max_heap));
  e.run();
  // 12,800 cancellations went through; lazy deletion must have compacted.
  EXPECT_EQ(e.cancelled_events(), 12800u);
  EXPECT_GT(e.compactions(), 0u);
  EXPECT_LT(max_heap, 1000u);          // not O(total cancelled)
  EXPECT_EQ(e.pending_events(), 0u);   // no slots leaked
  EXPECT_LT(e.slab_high_water(), 200u);  // slots were recycled, not grown
}

TEST(Engine, PendingEventsTracksScheduledWork) {
  Engine e;
  EXPECT_EQ(e.pending_events(), 0u);
  TimerHandle h = e.call_at(seconds(1), [] {});
  e.call_at(seconds(2), [] {});
  EXPECT_EQ(e.pending_events(), 2u);
  h.cancel();
  EXPECT_EQ(e.pending_events(), 1u);
  EXPECT_EQ(e.cancelled_events(), 1u);
  e.run();
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_EQ(e.events_executed(), 1u);
}

TEST(Engine, RunUntilStopsClockAtLimit) {
  Engine e;
  int ticks = 0;
  e.spawn("ticker", [](int& ticks) -> Task<void> {
    for (;;) {
      co_await delay(seconds(1));
      ++ticks;
    }
  }(ticks));
  e.run_until(seconds(5));
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(e.now(), seconds(5));
  e.run_until(seconds(10));
  EXPECT_EQ(ticks, 10);
}

TEST(Engine, UncaughtActorExceptionSurfacesFromRun) {
  Engine e;
  e.spawn("boom", []() -> Task<void> {
    co_await delay(seconds(1));
    throw std::runtime_error("boom");
  }());
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, ExceptionsPropagateAcrossCoAwait) {
  Engine e;
  std::string caught;
  e.spawn("t", [](std::string& caught) -> Task<void> {
    auto thrower = []() -> Task<int> {
      co_await delay(seconds(1));
      throw std::runtime_error("inner failure");
    };
    try {
      (void)co_await thrower();
    } catch (const std::runtime_error& ex) {
      caught = ex.what();
    }
  }(caught));
  e.run();
  EXPECT_EQ(caught, "inner failure");
}

TEST(Engine, ManyActorsScale) {
  Engine e;
  int done = 0;
  for (int i = 0; i < 2000; ++i) {
    e.spawn("w", [](int i, int& done) -> Task<void> {
      co_await delay(milliseconds(i % 97));
      ++done;
    }(i, done));
  }
  e.run();
  EXPECT_EQ(done, 2000);
  EXPECT_EQ(e.live_actor_count(), 0u);
}

TEST(Engine, DestructorCleansUpLiveActors) {
  int destroyed = 0;
  struct Sentinel {
    int* n;
    explicit Sentinel(int* n) : n(n) {}
    ~Sentinel() { ++*n; }
  };
  {
    Engine e;
    for (int i = 0; i < 4; ++i) {
      e.spawn("w", [](int* n) -> Task<void> {
        Sentinel s(n);
        co_await delay(seconds(100));
      }(&destroyed));
    }
    e.run_until(seconds(1));
  }
  EXPECT_EQ(destroyed, 4);
}

TEST(Engine, YieldInterleavesFairly) {
  Engine e;
  std::vector<int> order;
  for (int id = 0; id < 2; ++id) {
    e.spawn("t", [](int id, std::vector<int>& order) -> Task<void> {
      for (int i = 0; i < 3; ++i) {
        order.push_back(id);
        co_await yield();
      }
    }(id, order));
  }
  e.run();
  // Round-robin at time 0: 0 1 0 1 0 1.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

}  // namespace
}  // namespace jets::sim
