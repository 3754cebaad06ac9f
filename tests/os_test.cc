// Unit tests for the OS substrate: fair-share I/O, filesystems, machines,
// process management, and the batch scheduler.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "os/fairshare.hh"
#include "os/filesystem.hh"
#include "os/machine.hh"
#include "sim/sim.hh"

namespace jets::os {
namespace {

using sim::Engine;
using sim::Task;
using sim::Time;

TEST(FairShare, SingleTransferRunsAtFullBandwidth) {
  Engine e;
  FairShareServer srv(e, 100.0);  // 100 B/s
  Time done = -1;
  e.spawn("t", [](Engine& e, FairShareServer& srv, Time& done) -> Task<void> {
    co_await srv.transfer(200);
    done = e.now();
  }(e, srv, done));
  e.run();
  EXPECT_NEAR(sim::to_seconds(done), 2.0, 1e-6);
}

TEST(FairShare, TwoConcurrentTransfersHalveBandwidth) {
  Engine e;
  FairShareServer srv(e, 100.0);
  std::vector<double> done;
  for (int i = 0; i < 2; ++i) {
    e.spawn("t", [](Engine& e, FairShareServer& srv, std::vector<double>& done) -> Task<void> {
      co_await srv.transfer(100);
      done.push_back(sim::to_seconds(e.now()));
    }(e, srv, done));
  }
  e.run();
  ASSERT_EQ(done.size(), 2u);
  // Both share 100 B/s, so 100 B each takes 2 s.
  EXPECT_NEAR(done[0], 2.0, 1e-6);
  EXPECT_NEAR(done[1], 2.0, 1e-6);
}

TEST(FairShare, LateArrivalSlowsEarlierTransfer) {
  Engine e;
  FairShareServer srv(e, 100.0);
  double first_done = -1, second_done = -1;
  e.spawn("first", [](Engine& e, FairShareServer& srv, double& done) -> Task<void> {
    co_await srv.transfer(100);  // alone: 1 s; with company after 0.5 s: longer
    done = sim::to_seconds(e.now());
  }(e, srv, first_done));
  e.spawn("second", [](Engine& e, FairShareServer& srv, double& done) -> Task<void> {
    co_await sim::delay(sim::milliseconds(500));
    co_await srv.transfer(100);
    done = sim::to_seconds(e.now());
  }(e, srv, second_done));
  e.run();
  // First: 50 B alone (0.5 s), remaining 50 B at half rate (1.0 s) => 1.5 s.
  EXPECT_NEAR(first_done, 1.5, 1e-6);
  // Second: 50 B at half rate (1.0 s), remaining 50 B alone (0.5 s) => 2.0 s.
  EXPECT_NEAR(second_done, 2.0, 1e-6);
}

TEST(FairShare, ManyTransfersConserveWork) {
  // N equal transfers admitted together must all complete at N*size/B.
  Engine e;
  FairShareServer srv(e, 1e6);
  int finished = 0;
  constexpr int kN = 50;
  for (int i = 0; i < kN; ++i) {
    e.spawn("t", [](FairShareServer& srv, int& finished) -> Task<void> {
      co_await srv.transfer(1'000'000);
      ++finished;
    }(srv, finished));
  }
  Time end = e.run();
  EXPECT_EQ(finished, kN);
  EXPECT_NEAR(sim::to_seconds(end), kN * 1.0, 1e-3);
}

TEST(LocalFs, ReadChargesLatencyPlusBandwidth) {
  Engine e;
  LocalFs fs(sim::milliseconds(1), 1e6);
  fs.put("/bin/app", 1'000'000);
  Time done = -1;
  e.spawn("t", [](Engine& e, LocalFs& fs, Time& done) -> Task<void> {
    co_await fs.read("/bin/app");
    done = e.now();
  }(e, fs, done));
  e.run();
  EXPECT_EQ(done, sim::milliseconds(1) + sim::seconds(1));
}

TEST(LocalFs, MissingFileThrows) {
  Engine e;
  LocalFs fs(0, 1e6);
  bool threw = false;
  e.spawn("t", [](LocalFs& fs, bool& threw) -> Task<void> {
    try {
      co_await fs.read("/no/such");
    } catch (const FileError&) {
      threw = true;
    }
  }(fs, threw));
  e.run();
  EXPECT_TRUE(threw);
}

TEST(SharedFs, ConcurrentReadersContend) {
  Engine e;
  SharedFs fs(e, 0, 1e6);
  fs.put("/data", 1'000'000);
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) {
    e.spawn("r", [](Engine& e, SharedFs& fs, std::vector<double>& done) -> Task<void> {
      co_await fs.read("/data");
      done.push_back(sim::to_seconds(e.now()));
    }(e, fs, done));
  }
  e.run();
  ASSERT_EQ(done.size(), 4u);
  for (double d : done) EXPECT_NEAR(d, 4.0, 1e-3);  // 4 readers share 1 MB/s
}

TEST(SharedFs, WriteCreatesFile) {
  Engine e;
  SharedFs fs(e, 0, 1e9);
  e.spawn("w", [](SharedFs& fs) -> Task<void> {
    co_await fs.write("/out", 123);
  }(fs));
  e.run();
  EXPECT_TRUE(fs.exists("/out"));
  EXPECT_EQ(fs.size("/out"), std::optional<std::uint64_t>(123));
}

class MachineTest : public ::testing::Test {
 protected:
  Engine engine;
  Machine machine{engine, Machine::breadboard(4)};
};

TEST_F(MachineTest, PresetShapes) {
  EXPECT_EQ(machine.compute_node_count(), 4u);
  EXPECT_EQ(machine.login_node(), 4u);
  EXPECT_EQ(machine.node(0).spec().cores, 8u);

  Engine e2;
  Machine bgp(e2, Machine::surveyor(1024));
  EXPECT_EQ(bgp.node(0).spec().cores, 4u);
  EXPECT_GT(bgp.node(0).spec().fork_exec, machine.node(0).spec().fork_exec);
}

TEST_F(MachineTest, ExecChargesForkCost) {
  Time body_started = -1;
  machine.exec(0, "p", [](Engine& e, Time& started) -> Task<void> {
    started = e.now();
    co_return;
  }(engine, body_started));
  engine.run();
  EXPECT_EQ(body_started, machine.node(0).spec().fork_exec);
}

TEST_F(MachineTest, BinaryLoadsFromSharedFsWhenNotStaged) {
  machine.shared_fs().put("/gpfs/app", 100'000'000);  // big: noticeable time
  Time started_shared = -1;
  ExecOptions opts;
  opts.binary = "/gpfs/app";
  machine.exec(0, "p", [](Engine& e, Time& s) -> Task<void> {
    s = e.now();
    co_return;
  }(engine, started_shared), opts);
  engine.run();

  // Now stage to node-local storage: startup should be much faster.
  Engine e2;
  Machine m2(e2, Machine::breadboard(4));
  m2.shared_fs().put("/gpfs/app", 100'000'000);
  m2.node(0).local_fs().put("/gpfs/app", 100'000'000);
  Time started_local = -1;
  m2.exec(0, "p", [](Engine& e, Time& s) -> Task<void> {
    s = e.now();
    co_return;
  }(e2, started_local), opts);
  e2.run();

  EXPECT_LT(started_local, started_shared);
}

TEST_F(MachineTest, WaitBlocksUntilProcessExit) {
  auto pid = machine.exec(1, "sleeper", []() -> Task<void> {
    co_await sim::delay(sim::seconds(5));
  }());
  Time waited = -1;
  engine.spawn("waiter", [](Engine& e, Machine& m, Machine::Pid pid,
                            Time& waited) -> Task<void> {
    co_await m.wait(pid);
    waited = e.now();
  }(engine, machine, pid, waited));
  engine.run();
  EXPECT_GE(waited, sim::seconds(5));
  EXPECT_FALSE(machine.alive(pid));
}

TEST_F(MachineTest, WaitOnExecInOneFullExpression) {
  // exec()'s defaulted ExecOptions is a prvalue that lives across the
  // co_await of the same full-expression. GCC 12 gave an aggregate there
  // a bitwise duplicate in the frame, and destroying it freed the
  // original's inline string buffer (free(): invalid pointer); the
  // options' user-provided constructors keep it a non-aggregate.
  int children = 0;
  machine.exec(0, "parent", [](Machine& m, int& n) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await m.wait(m.exec(0, "child", [](int& n) -> Task<void> {
        ++n;
        co_return;
      }(n)));
    }
  }(machine, children));
  engine.run();
  EXPECT_EQ(children, 3);
  EXPECT_EQ(machine.process_count(), 0u);
}

TEST_F(MachineTest, KillTerminatesProcess) {
  bool completed = false;
  auto pid = machine.exec(1, "victim", [](bool& completed) -> Task<void> {
    co_await sim::delay(sim::seconds(100));
    completed = true;
  }(completed));
  engine.call_at(sim::seconds(1), [&] { machine.kill(pid); });
  engine.run();
  EXPECT_FALSE(completed);
  EXPECT_FALSE(machine.alive(pid));
  EXPECT_EQ(machine.process_count(), 0u);
}

// --- Process lifetimes under kill ---------------------------------------------
//
// A parent with three children: one still in its fork delay, one mid
// shared-filesystem read, one waiting on a gate. A survivor outside the
// tree reads the same file alongside the doomed read.

/// A breadboard node on a 1 MB/s shared filesystem with no metadata cost.
MachineSpec slow_gpfs() {
  MachineSpec spec = Machine::breadboard(2);
  spec.shared_fs_latency = 0;
  spec.shared_fs_bps = 1e6;
  return spec;
}

/// Execs the survivor's read, then a parent whose children fork 4 ms after
/// it did; both reads start at 8 ms.
Machine::Pid start_tree(Machine& machine, sim::Gate& gate, Time& survivor_done,
                        bool& child_finished) {
  machine.shared_fs().put("/gpfs/data", 1'000'000);
  machine.exec(1, "survivor", [](Machine& m, Time& done) -> Task<void> {
    co_await sim::delay(m.node(1).spec().fork_exec);
    co_await m.shared_fs().read("/gpfs/data");
    done = m.engine().now();
  }(machine, survivor_done));
  return machine.exec(0, "parent", [](Machine& m, sim::Gate& gate,
                                      bool& finished) -> Task<void> {
    ExecOptions slow_start;
    slow_start.extra_startup = sim::seconds(10);
    m.exec(0, "forking", [](bool& finished) -> Task<void> {
      finished = true;
      co_return;
    }(finished), std::move(slow_start));
    m.exec(0, "reading", [](Machine& m, bool& finished) -> Task<void> {
      co_await m.shared_fs().read("/gpfs/data");
      finished = true;
    }(m, finished));
    m.exec(0, "waiting", [](sim::Gate& gate, bool& finished) -> Task<void> {
      co_await gate.wait();
      finished = true;
    }(gate, finished));
    co_await sim::delay(sim::seconds(100));
  }(machine, gate, child_finished));
}

TEST(MachineKill, KilledReadKeepsItsShareUntilItsDeadline) {
  // Both 1 MB reads start at 8 ms and share 1 MB/s. The doomed one dies at
  // 1 s, but an abandoned read keeps the servers busy until its deadline,
  // so the survivor still needs 2 s, as if both had finished.
  Engine engine;
  Machine machine(engine, slow_gpfs());
  sim::Gate gate(engine);
  Time survivor_done = -1;
  bool child_finished = false;
  const Machine::Pid parent =
      start_tree(machine, gate, survivor_done, child_finished);
  engine.call_at(sim::seconds(1), [&] { machine.kill(parent); });
  engine.run();
  EXPECT_FALSE(child_finished);
  EXPECT_EQ(survivor_done, sim::milliseconds(2'008));
}

TEST(MachineKill, KilledTreeLeavesTheTableAndItsWaitsAtOnce) {
  Engine engine;
  Machine machine(engine, slow_gpfs());
  auto gate = std::make_unique<sim::Gate>(engine);
  Time survivor_done = -1;
  bool child_finished = false;
  const Machine::Pid parent =
      start_tree(machine, *gate, survivor_done, child_finished);
  // A second waiter outside the tree, still parked when the gate goes.
  bool outsider_woke = false;
  const Machine::Pid outsider = machine.exec(
      1, "outsider", [](sim::Gate& gate, bool& woke) -> Task<void> {
        co_await gate.wait();
        woke = true;
      }(*gate, outsider_woke));
  std::size_t before = 0;
  std::size_t after = 0;
  std::size_t gate_waiters = 0;
  engine.call_at(sim::seconds(1), [&] {
    before = machine.process_count();
    EXPECT_TRUE(machine.kill(parent));
    after = machine.process_count();
    gate_waiters = gate->waiting();
  });
  engine.run_until(sim::seconds(1) + 1);
  EXPECT_EQ(before, 6u);  // parent, its three children, survivor, outsider
  EXPECT_EQ(after, 2u);   // survivor and outsider
  EXPECT_EQ(gate_waiters, 1u);  // the killed child's wait left the gate
  EXPECT_FALSE(machine.alive(parent));
  EXPECT_FALSE(machine.kill(parent));

  // A gate destroyed under a waiter detaches it: killing the waiter later
  // must not touch the freed gate (the sanitizer lanes check the memory).
  gate.reset();
  EXPECT_TRUE(machine.kill(outsider));
  engine.run();
  EXPECT_FALSE(outsider_woke);
  EXPECT_FALSE(child_finished);
  EXPECT_EQ(survivor_done, sim::milliseconds(2'008));
  EXPECT_EQ(machine.process_count(), 0u);
}

TEST(BatchSchedulerTest, AllocationLifecycle) {
  Engine engine;
  Machine machine(engine, Machine::breadboard(16));
  BatchScheduler::Policy policy;
  policy.boot_time = sim::seconds(60);
  BatchScheduler sched(machine, policy, sim::Rng(1));
  std::vector<net::NodeId> got;
  engine.spawn("user", [](BatchScheduler& s, std::vector<net::NodeId>& got) -> Task<void> {
    auto alloc = co_await s.submit(8, sim::seconds(3600));
    got = alloc.nodes;
    s.release(alloc);
  }(sched, got));
  engine.run();
  EXPECT_EQ(got.size(), 8u);
  EXPECT_GE(engine.now(), sim::seconds(60));  // at least the boot time
  EXPECT_EQ(sched.free_nodes(), 16u);
}

TEST(BatchSchedulerTest, EnforcesSiteMinimum) {
  Engine engine;
  Machine machine(engine, Machine::breadboard(16));
  BatchScheduler::Policy policy;
  policy.min_nodes = 8;  // like Intrepid's 512-node minimum (§3)
  BatchScheduler sched(machine, policy, sim::Rng(1));
  bool threw = false;
  engine.spawn("user", [](BatchScheduler& s, bool& threw) -> Task<void> {
    try {
      (void)co_await s.submit(4, sim::seconds(60));
    } catch (const std::invalid_argument&) {
      threw = true;
    }
  }(sched, threw));
  engine.run();
  EXPECT_TRUE(threw);
}

TEST(BatchSchedulerTest, WalltimeKillsPilotsAndReleasesNodes) {
  Engine engine;
  Machine machine(engine, Machine::breadboard(8));
  BatchScheduler::Policy policy;
  policy.boot_time = sim::seconds(10);
  policy.base_queue_wait = 0;
  policy.wait_per_node = 0;
  BatchScheduler sched(machine, policy, sim::Rng(4));
  bool pilot_survived_past_walltime = false;
  engine.spawn("user", [](Machine& machine, BatchScheduler& s,
                          bool& survived) -> Task<void> {
    auto alloc = co_await s.submit(4, sim::seconds(60));
    std::vector<Machine::Pid> pilots;
    for (net::NodeId n : alloc.nodes) {
      pilots.push_back(machine.exec(n, "pilot", [](bool* flag) -> Task<void> {
        co_await sim::delay(sim::seconds(10'000));
        *flag = true;  // would only run if the walltime failed to kill us
      }(&survived)));
    }
    s.enforce_walltime(alloc, pilots);
  }(machine, sched, pilot_survived_past_walltime));
  engine.run();
  EXPECT_FALSE(pilot_survived_past_walltime);
  EXPECT_EQ(sched.free_nodes(), 8u);  // nodes returned at expiry
  EXPECT_EQ(machine.process_count(), 0u);
  // Walltime fired at start + 60 s, not at the pilots' natural end.
  EXPECT_LT(engine.now(), sim::seconds(120));
}

TEST(BatchSchedulerTest, DisjointAllocations) {
  Engine engine;
  Machine machine(engine, Machine::breadboard(8));
  BatchScheduler sched(machine, {}, sim::Rng(2));
  std::vector<net::NodeId> a, b;
  engine.spawn("u1", [](BatchScheduler& s, std::vector<net::NodeId>& out) -> Task<void> {
    auto alloc = co_await s.submit(4, sim::seconds(600));
    out = alloc.nodes;
  }(sched, a));
  engine.spawn("u2", [](BatchScheduler& s, std::vector<net::NodeId>& out) -> Task<void> {
    auto alloc = co_await s.submit(4, sim::seconds(600));
    out = alloc.nodes;
  }(sched, b));
  engine.run();
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  for (auto n1 : a)
    for (auto n2 : b) EXPECT_NE(n1, n2);
}

}  // namespace
}  // namespace jets::os
