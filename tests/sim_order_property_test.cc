// Differential/property tests for the engine's indexed event core and the
// service's SoA entity tables.
//
// Part 1 — event order. The slab + generation scheme (compact {time, seq,
// slot, gen} heap entries, epoch-based cancellation, lazy-deletion
// compaction) must yield the *exact* event execution order of a
// straightforward fat-event heap: live events sorted by (time, seq), with
// cancelled timers and killed actors' resumptions silently skipped. These
// tests drive the real engine and an independent reference model from the
// same randomly generated script of schedule/cancel/spawn/kill operations
// and compare orders, and check same-seed runs hash identically
// (golden-trace determinism).
//
// Part 2 — table churn. The worker SlotMap and the service's lazy-deletion
// PendingQueue/ReadyPool (core/queues.hh, core/table.hh) replace map
// scans on the million-worker hot path; random enlist/evict/re-enlist and
// submit/cancel/dispatch scripts are replayed against naive map/vector
// reference models, entry for entry, including the slot-recycling ABA
// cases the generation counters and tickets exist for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/queues.hh"
#include "core/table.hh"
#include "sim/sim.hh"

namespace jets::sim {
namespace {

// --- Script generation ---------------------------------------------------

/// One timer armed by the script. `created` is the arm order across the
/// whole script — the engine assigns strictly increasing sequence numbers,
/// so among equal fire times the reference order is arm order.
struct RefTimer {
  Time armed_at = 0;
  Time fire_at = 0;
  std::uint64_t created = 0;
  int label = 0;
};

struct CancelOp {
  int round = 0;  // cancel happens when the controller wakes for this round
  int label = 0;
};

struct VictimOp {
  int spawn_round = 0;
  int hops = 0;           // victim does `hops` random-length delays, then exits
  Duration hop = 0;
  int kill_round = -1;    // -1 = never killed (dies naturally)
};

struct Script {
  int rounds = 0;
  std::vector<RefTimer> timers;              // ordered by `created`
  std::vector<std::vector<int>> arms;        // round -> timer labels to arm
  std::vector<std::vector<int>> cancels;     // round -> labels to cancel
  std::vector<VictimOp> victims;
  std::vector<std::vector<int>> spawns;      // round -> victim indices
  std::vector<std::vector<int>> kills;       // round -> victim indices
};

constexpr Duration kRoundGap = microseconds(1);

Time round_time(int round) { return kRoundGap * round; }

Script make_script(std::uint64_t seed) {
  Rng rng(seed);
  Script s;
  s.rounds = 40;
  s.arms.resize(static_cast<std::size_t>(s.rounds));
  s.cancels.resize(static_cast<std::size_t>(s.rounds));
  s.spawns.resize(static_cast<std::size_t>(s.rounds));
  s.kills.resize(static_cast<std::size_t>(s.rounds));
  for (int r = 0; r < s.rounds; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    // Arm a handful of timers. The sub-microsecond remainder keeps fire
    // times off the round grid, so a cancel never races the fire instant.
    const int n_arm = static_cast<int>(rng.uniform_int(0, 6));
    for (int k = 0; k < n_arm; ++k) {
      RefTimer t;
      t.armed_at = round_time(r);
      t.fire_at = t.armed_at + microseconds(rng.uniform_int(1, 60)) +
                  rng.uniform_int(1, 999);
      t.created = s.timers.size();
      t.label = static_cast<int>(s.timers.size());
      s.arms[ri].push_back(t.label);
      s.timers.push_back(t);
    }
    // Cancel a few of the timers armed so far (possibly already fired,
    // possibly already cancelled — both must be harmless no-ops).
    if (!s.timers.empty()) {
      const int n_cancel = static_cast<int>(rng.uniform_int(0, 3));
      for (int k = 0; k < n_cancel; ++k) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(s.timers.size()) - 1));
        s.cancels[ri].push_back(s.timers[pick].label);
      }
    }
    // Actor churn: victims exercise actor-slot reuse and the skip path for
    // resumptions of dead actors, without producing labels of their own.
    if (rng.bernoulli(0.4)) {
      VictimOp v;
      v.spawn_round = r;
      v.hops = static_cast<int>(rng.uniform_int(1, 20));
      v.hop = microseconds(rng.uniform_int(1, 30)) + rng.uniform_int(1, 999);
      if (r + 1 < s.rounds && rng.bernoulli(0.6)) {
        v.kill_round =
            static_cast<int>(rng.uniform_int(r + 1, s.rounds - 1));
      }
      const int idx = static_cast<int>(s.victims.size());
      s.spawns[ri].push_back(idx);
      if (v.kill_round >= 0) {
        s.kills[static_cast<std::size_t>(v.kill_round)].push_back(idx);
      }
      s.victims.push_back(v);
    }
  }
  return s;
}

// --- Reference model -----------------------------------------------------

/// Seed-heap semantics, computed independently of the engine: a timer is
/// dead iff some cancel op ran strictly before its fire time; live timers
/// execute in (fire time, arm order) order. Victims never produce labels,
/// so they must not appear here at all — that they *also* don't perturb
/// the engine's timer order is exactly the property under test.
std::vector<int> reference_order(const Script& s) {
  std::vector<bool> dead(s.timers.size(), false);
  for (int r = 0; r < s.rounds; ++r) {
    for (int label : s.cancels[static_cast<std::size_t>(r)]) {
      const RefTimer& t = s.timers[static_cast<std::size_t>(label)];
      if (round_time(r) < t.fire_at) dead[static_cast<std::size_t>(label)] = true;
    }
  }
  std::vector<RefTimer> live;
  for (const RefTimer& t : s.timers) {
    if (!dead[static_cast<std::size_t>(t.label)]) live.push_back(t);
  }
  std::sort(live.begin(), live.end(), [](const RefTimer& a, const RefTimer& b) {
    if (a.fire_at != b.fire_at) return a.fire_at < b.fire_at;
    return a.created < b.created;
  });
  std::vector<int> order;
  order.reserve(live.size());
  for (const RefTimer& t : live) order.push_back(t.label);
  return order;
}

// --- Engine run ----------------------------------------------------------

struct EngineTrace {
  std::vector<int> order;
  Time end_time = 0;
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::size_t slab_high_water = 0;
};

Task<void> victim_body(Duration hop, int hops) {
  for (int i = 0; i < hops; ++i) co_await delay(hop);
}

Task<void> controller(Engine& e, const Script& s, std::vector<int>& order) {
  std::map<int, TimerHandle> handles;
  std::map<int, ActorId> victims;
  for (int r = 0; r < s.rounds; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    for (int idx : s.kills[ri]) {
      auto it = victims.find(idx);
      if (it != victims.end()) e.kill(it->second);  // may already be done
    }
    for (int label : s.arms[ri]) {
      const RefTimer& t = s.timers[static_cast<std::size_t>(label)];
      handles[label] =
          e.call_at(t.fire_at, [label, &order] { order.push_back(label); });
    }
    for (int label : s.cancels[ri]) handles.at(label).cancel();
    for (int idx : s.spawns[ri]) {
      const VictimOp& v = s.victims[static_cast<std::size_t>(idx)];
      victims[idx] = e.spawn("victim", victim_body(v.hop, v.hops));
    }
    co_await delay(kRoundGap);
  }
}

EngineTrace run_script(const Script& s) {
  EngineTrace trace;
  Engine e;
  e.spawn("controller", controller(e, s, trace.order));
  trace.end_time = e.run();
  trace.events = e.events_executed();
  trace.cancelled = e.cancelled_events();
  trace.slab_high_water = e.slab_high_water();
  return trace;
}

// --- Tests ---------------------------------------------------------------

class OrderDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderDifferentialTest, EngineMatchesReferenceHeapOrder) {
  const Script s = make_script(GetParam());
  const std::vector<int> expected = reference_order(s);
  const EngineTrace actual = run_script(s);
  EXPECT_EQ(actual.order, expected);
  // Every script cancels something that was still pending.
  EXPECT_GT(actual.cancelled + actual.order.size(), 0u);
}

TEST_P(OrderDifferentialTest, SameSeedRunsProduceIdenticalTraces) {
  const Script s = make_script(GetParam());
  const EngineTrace a = run_script(s);
  const EngineTrace b = run_script(s);
  // Golden trace: hash the (label) firing sequence and compare runs.
  auto fnv = [](const std::vector<int>& order) {
    std::uint64_t h = 1469598103934665603ull;
    for (int label : order) {
      h ^= static_cast<std::uint64_t>(label);
      h *= 1099511628211ull;
    }
    return h;
  };
  EXPECT_EQ(fnv(a.order), fnv(b.order));
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.slab_high_water, b.slab_high_water);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u,
                                           0xdeadbeefu, 99999u));

TEST(OrderDifferential, TimerCallbackCancellingLaterTimerIsExact) {
  // Cancellation from inside a firing callback: the victim must not run,
  // the survivor must, and slot reuse across the cancel must not reorder.
  Engine e;
  std::vector<int> order;
  TimerHandle victim = e.call_at(seconds(2), [&] { order.push_back(2); });
  e.call_at(seconds(1), [&] {
    order.push_back(1);
    victim.cancel();
    e.call_at(e.now() + seconds(2), [&] { order.push_back(3); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(e.cancelled_events(), 1u);
}

TEST(OrderDifferential, KilledActorsResumptionsAreSkippedInPlace) {
  // A killed actor with a pending resumption between two timers: the
  // timers' relative order and times must be unaffected by the dead
  // resumption sitting at the top of the heap.
  Engine e;
  std::vector<std::pair<int, Time>> fired;
  ActorId victim = e.spawn("victim", []() -> Task<void> {
    co_await delay(seconds(5));
  }());
  e.call_at(seconds(1), [&] {
    fired.emplace_back(1, e.now());
    e.kill(victim);
  });
  e.call_at(seconds(10), [&] { fired.emplace_back(2, e.now()); });
  e.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], (std::pair<int, Time>{1, seconds(1)}));
  EXPECT_EQ(fired[1], (std::pair<int, Time>{2, seconds(10)}));
}

}  // namespace
}  // namespace jets::sim

namespace jets::core {
namespace {

using sim::Rng;

// --- SlotMap churn vs std::map -------------------------------------------
//
// Worker lifecycle: enlist mints a handle, EOF erases the slot, the next
// enlistment recycles it under a bumped generation. The reference model is
// a plain map keyed by the minted handle — a stale handle (erased, or its
// slot since recycled) must read as absent, never as the new tenant.

class TableChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TableChurnTest, SlotMapMatchesMapUnderEnlistEvictReenlist) {
  Rng rng(GetParam());
  SlotMap<int> table;
  std::map<SlotMap<int>::Id, int> ref;
  std::vector<SlotMap<int>::Id> minted;  // every handle ever issued
  int next_value = 0;

  for (int op = 0; op < 2'000; ++op) {
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 4 || minted.empty()) {  // enlist
      const int v = next_value++;
      const auto id = table.insert(v);
      EXPECT_FALSE(ref.contains(id)) << "recycled slot aliased a live handle";
      ref[id] = v;
      minted.push_back(id);
    } else if (roll < 7) {  // evict/EOF: erase a random handle, maybe stale
      const auto id = minted[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(minted.size()) - 1))];
      table.erase(id);
      ref.erase(id);
    } else {  // lookup a random handle, maybe stale
      const auto id = minted[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(minted.size()) - 1))];
      const int* got = table.find(id);
      const auto it = ref.find(id);
      ASSERT_EQ(got != nullptr, it != ref.end());
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second);
      }
    }
    ASSERT_EQ(table.size(), ref.size());
  }
  // The slab never grew past the population high-water (LIFO reuse).
  EXPECT_LE(table.slab_high_water(), minted.size());
  // for_each visits exactly the live population.
  std::set<int> live_values, ref_values;
  table.for_each([&](SlotMap<int>::Id, int v) { live_values.insert(v); });
  for (const auto& [id, v] : ref) ref_values.insert(v);
  EXPECT_EQ(live_values, ref_values);
}

// --- PendingQueue churn vs a naive FIFO vector ---------------------------
//
// Submit/cancel/dispatch/backfill scripts. The reference keeps live jobs in
// a plain vector in submission order; erase is O(n) remove, backfill is a
// literal (priority desc, FIFO) scan. The real queue's lazy deletion,
// ticket retirement, and compaction must be invisible next to that.

struct RefJob {
  JobId id = 0;
  int priority = 0;
  std::uint32_t width = 0;
};

class QueueChurnTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(QueueChurnTest, PendingQueueMatchesNaiveFifo) {
  const auto [seed, buckets] = GetParam();
  Rng rng(seed);
  PendingQueue q(buckets);
  std::vector<RefJob> ref;  // live jobs, submission order
  JobId next_id = 1;

  for (int op = 0; op < 4'000; ++op) {
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 4) {  // submit (or retry-requeue: same path, fresh ticket)
      RefJob j{next_id++, static_cast<int>(rng.uniform_int(0, 3)),
               static_cast<std::uint32_t>(rng.uniform_int(1, 8))};
      q.push_back(j.id, j.priority, j.width);
      ref.push_back(j);
    } else if (roll < 6 && next_id > 1) {  // cancel/settle a random id
      const JobId id = static_cast<JobId>(
          rng.uniform_int(1, static_cast<std::int64_t>(next_id) - 1));
      q.erase(id);  // no-op when not queued — e.g. already dispatched
      std::erase_if(ref, [id](const RefJob& j) { return j.id == id; });
    } else if (roll < 8) {  // FIFO dispatch
      ASSERT_EQ(q.empty(), ref.empty());
      if (!ref.empty()) {
        EXPECT_EQ(q.front(), ref.front().id);
        EXPECT_EQ(q.front_width(), ref.front().width);
        q.pop_front();
        ref.erase(ref.begin());
      }
    } else if (buckets) {  // backfill dispatch under a random capacity
      const auto cap = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
      const std::optional<JobId> got =
          q.pop_first_fit([cap](std::uint32_t w) { return w <= cap; });
      // Reference: first fit in (priority desc, submission) order.
      std::optional<JobId> want;
      for (int prio = 3; prio >= 0 && !want; --prio) {
        for (const RefJob& j : ref) {
          if (j.priority == prio && j.width <= cap) {
            want = j.id;
            break;
          }
        }
      }
      ASSERT_EQ(got, want);
      if (want) {
        std::erase_if(ref, [&](const RefJob& j) { return j.id == *want; });
      }
    }
    ASSERT_EQ(q.size(), ref.size());
    // Lazy deletion stays bounded: stale copies never dominate live ones
    // by more than the compaction slack.
    ASSERT_LE(q.physical_size(), 2 * q.size() + 128);
  }
  // Surviving live order matches, entry for entry.
  std::vector<JobId> got_ids, want_ids;
  q.for_each([&](JobId id, std::uint32_t) { got_ids.push_back(id); });
  for (const RefJob& j : ref) want_ids.push_back(j.id);
  EXPECT_EQ(got_ids, want_ids);
}

// --- ReadyPool churn vs a naive vector -----------------------------------
//
// Workers enter the pool when idle, leave on claim or eviction, and their
// handles get recycled by the SlotMap across EOF/re-enlist — the exact ABA
// shape the per-slot tickets guard against: a stale pool entry for a dead
// worker must never surface as the recycled slot's new tenant.

struct RefReady {
  std::uint64_t wid = 0;
  os::NodeId node = 0;
  std::uint64_t arrival = 0;
};

class PoolChurnTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(PoolChurnTest, ReadyPoolMatchesNaiveVector) {
  const auto [seed, indexed] = GetParam();
  Rng rng(seed);
  ReadyPool pool(indexed);
  SlotMap<os::NodeId> workers;  // mints wids exactly as the service does
  std::vector<RefReady> ref;    // pooled workers, FIFO order
  std::vector<std::uint64_t> live_wids;
  std::uint64_t arrivals = 0;

  auto ref_remove = [&](std::uint64_t wid) {
    std::erase_if(ref, [wid](const RefReady& r) { return r.wid == wid; });
  };

  for (int op = 0; op < 3'000; ++op) {
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 3 || live_wids.empty()) {  // enlist + enter the pool
      const auto node = static_cast<os::NodeId>(rng.uniform_int(0, 15));
      const std::uint64_t wid = workers.insert(node);
      live_wids.push_back(wid);
      pool.push_back(wid, node);
      ref.push_back(RefReady{wid, node, arrivals++});
    } else if (roll < 5) {  // evict + EOF: slot goes back for recycling
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_wids.size()) - 1));
      const std::uint64_t wid = live_wids[pick];
      pool.erase(wid, workers.at(wid));
      ref_remove(wid);
      workers.erase(wid);
      live_wids.erase(live_wids.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (roll < 7) {  // busy: leave the pool but stay enlisted
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_wids.size()) - 1));
      const std::uint64_t wid = live_wids[pick];
      pool.erase(wid, workers.at(wid));  // no-op when not pooled
      ref_remove(wid);
    } else if (roll < 9 || !indexed) {  // FCFS claim
      ASSERT_EQ(pool.empty(), ref.empty());
      if (!ref.empty()) {
        EXPECT_EQ(pool.front(), ref.front().wid);
        pool.erase_front(workers.at(ref.front().wid));
        ref.erase(ref.begin());
      }
    } else if (!ref.empty()) {  // network-aware gang claim
      const auto count = static_cast<std::size_t>(rng.uniform_int(
          1, std::min<std::int64_t>(4, static_cast<std::int64_t>(ref.size()))));
      // Reference min-span window over the (node, arrival)-sorted view.
      std::vector<RefReady> sorted = ref;
      std::sort(sorted.begin(), sorted.end(),
                [](const RefReady& a, const RefReady& b) {
                  if (a.node != b.node) return a.node < b.node;
                  return a.arrival < b.arrival;
                });
      std::size_t best = 0;
      os::NodeId best_span = std::numeric_limits<os::NodeId>::max();
      for (std::size_t i = 0; i + count <= sorted.size(); ++i) {
        const os::NodeId span = sorted[i + count - 1].node - sorted[i].node;
        if (span < best_span) {
          best_span = span;
          best = i;
        }
      }
      std::vector<std::uint64_t> want;
      for (std::size_t k = best; k < best + count; ++k) {
        want.push_back(sorted[k].wid);
      }
      // A zero scorer: every window ties, so the min-span rule decides.
      const auto zero = [](const ReadyPool::Entry*, std::size_t) {
        return std::uint64_t{0};
      };
      EXPECT_EQ(pool.claim_best(count, zero), want);
      for (std::uint64_t wid : want) ref_remove(wid);
    }
    ASSERT_EQ(pool.size(), ref.size());
    ASSERT_LE(pool.physical_size(), 2 * pool.size() + 128);
  }
  // Surviving FIFO matches entry for entry — no stale-ticket survivors, no
  // recycled-slot aliases.
  std::vector<std::uint64_t> want_fifo;
  for (const RefReady& r : ref) want_fifo.push_back(r.wid);
  EXPECT_EQ(pool.live_fifo(), want_fifo);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableChurnTest,
                         ::testing::Values(1u, 7u, 42u, 0xfeedfaceu, 31337u));
INSTANTIATE_TEST_SUITE_P(
    Seeds, QueueChurnTest,
    ::testing::Combine(::testing::Values(1u, 7u, 42u, 0xfeedfaceu, 31337u),
                       ::testing::Bool()));
INSTANTIATE_TEST_SUITE_P(
    Seeds, PoolChurnTest,
    ::testing::Combine(::testing::Values(1u, 7u, 42u, 0xfeedfaceu, 31337u),
                       ::testing::Bool()));

}  // namespace
}  // namespace jets::core
