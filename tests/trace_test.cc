// Tests for engine tracing, plus churn stress: thousands of short-lived
// processes (the MPTC steady state) must leave no residue.
#include <gtest/gtest.h>

#include "apps/synthetic.hh"
#include "core/standalone.hh"
#include "testbed.hh"
#include "trace_log.hh"

namespace jets::sim {
namespace {

TEST(TraceLog, RecordsSpawnFinishKill) {
  Engine e;
  TraceLog log;
  ScopedObserver attach(e, log);
  ActorId quick = e.spawn("quick", []() -> Task<void> { co_return; }());
  ActorId victim = e.spawn("victim", []() -> Task<void> {
    co_await delay(seconds(100));
  }());
  e.call_at(seconds(1), [&e, victim] { e.kill(victim); });
  e.run();

  EXPECT_EQ(log.count(TraceEvent::Kind::kSpawn), 2u);
  EXPECT_EQ(log.count(TraceEvent::Kind::kFinish), 1u);
  EXPECT_EQ(log.count(TraceEvent::Kind::kKill), 1u);
  EXPECT_EQ(log.live_at_end(), 0u);
  ASSERT_EQ(log.matching("victim").size(), 2u);  // spawn + kill
  EXPECT_EQ(log.matching("victim")[1].kind, TraceEvent::Kind::kKill);
  EXPECT_EQ(log.matching("victim")[1].at, seconds(1));
  EXPECT_EQ(log.matching("quick")[0].actor, quick);
}

TEST(TraceLog, ObserverSeesBalancedChurnThroughJets) {
  // Every process the JETS stack spawns for a batch must also end: runners,
  // proxies, ranks — nothing may linger once the batch settles.
  test::TestBed bed(os::Machine::breadboard(4));
  apps::install_synthetic_apps(bed.apps);
  bed.machine.shared_fs().put("mpi_sleep", 1'000'000);
  TraceLog log;
  ScopedObserver attach(bed.engine, log);

  core::StandaloneOptions opts;
  opts.worker.task_overhead = milliseconds(2);
  core::StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start({0, 1, 2, 3});
  std::vector<core::JobSpec> jobs(10, core::JobSpec{});
  for (auto& j : jobs) {
    j.kind = core::JobKind::kMpi;
    j.nprocs = 2;
    j.argv = {"mpi_sleep", "1"};
  }
  bed.engine.spawn("driver", [](core::StandaloneJets& jets,
                                std::vector<core::JobSpec> jobs) -> Task<void> {
    (void)co_await jets.run_batch(std::move(jobs));
  }(jets, std::move(jobs)));
  bed.engine.run();

  // 10 MPI jobs x (2 proxy tasks + 2 ranks + mpiexec's actors...) — the
  // exact count is an implementation detail; the invariants are not:
  EXPECT_GT(log.count(TraceEvent::Kind::kSpawn), 40u);
  // Only the long-lived infrastructure survives: 4 workers + their
  // handler/accept/dispatch actors. Everything job-scoped ended.
  EXPECT_EQ(log.count(TraceEvent::Kind::kSpawn),
            log.count(TraceEvent::Kind::kFinish) +
                log.count(TraceEvent::Kind::kKill) + log.live_at_end());
  EXPECT_LT(log.live_at_end(), 16u);
  // No task process lingers: each of the 10 jobs dispatched 2 proxy tasks
  // through workers (named "task:<id>"), and each ended.
  const auto task_events = log.matching("task:");
  std::size_t spawned = 0, ended = 0;
  for (const auto& ev : task_events) {
    if (ev.kind == TraceEvent::Kind::kSpawn) ++spawned;
    else ++ended;
  }
  EXPECT_EQ(spawned, ended);
  EXPECT_EQ(spawned, 20u);  // 10 jobs x 2 proxies
}

TEST(TraceLog, MultipleObserversAllSeeEveryEvent) {
  Engine e;
  TraceLog first, second;
  ScopedObserver a(e, first);
  {
    ScopedObserver b(e, second);
    EXPECT_EQ(e.observer_count(), 2u);
    e.spawn("one", []() -> Task<void> { co_return; }());
    e.run();
    // Both observers saw the same stream, in the same order.
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first.events()[i].kind, second.events()[i].kind);
      EXPECT_EQ(first.events()[i].actor, second.events()[i].actor);
    }
  }
  // `second` detached by scope exit; only `first` keeps recording.
  EXPECT_EQ(e.observer_count(), 1u);
  const std::size_t before = second.size();
  e.spawn("two", []() -> Task<void> { co_return; }());
  e.run();
  EXPECT_EQ(second.size(), before);
  EXPECT_EQ(first.count(TraceEvent::Kind::kSpawn), 2u);
  EXPECT_EQ(first.count(TraceEvent::Kind::kFinish), 2u);
}

TEST(TraceLog, ScopedObserverDetachesBeforeLogDies) {
  // The trace.hh footgun this API removes: a log that dies before the
  // engine must not leave a dangling observer pointer behind.
  Engine e;
  {
    TraceLog log;
    ScopedObserver attach(e, log);
    e.spawn("a", []() -> Task<void> { co_return; }());
    e.run();
    EXPECT_EQ(log.count(TraceEvent::Kind::kFinish), 1u);
  }
  EXPECT_EQ(e.observer_count(), 0u);
  e.spawn("b", []() -> Task<void> { co_return; }());
  e.run();  // would crash (ASan: use-after-scope) if the pointer lingered
}

TEST(ChurnStress, ThousandsOfShortProcessesLeaveNoResidue) {
  Engine e;
  os::Machine machine(e, os::Machine::breadboard(8));
  for (int i = 0; i < 5000; ++i) {
    machine.exec(static_cast<os::NodeId>(i % 8), "p",
                 []() -> Task<void> { co_await delay(milliseconds(3)); }());
  }
  e.run();
  EXPECT_EQ(machine.process_count(), 0u);
  EXPECT_EQ(e.live_actor_count(), 0u);
}

TEST(ChurnStress, RepeatedMpiexecCreationAndDestruction) {
  test::TestBed bed(os::Machine::breadboard(4));
  bed.apps.install("noop", [](os::Env&) -> Task<void> { co_return; });
  bed.machine.shared_fs().put("noop", 16'384);
  int ok = 0;
  bed.engine.spawn("driver", [](test::TestBed& bed, int& ok) -> Task<void> {
    for (int round = 0; round < 50; ++round) {
      pmi::MpiexecSpec spec;
      spec.user_argv = {"noop"};
      spec.nprocs = 2;
      pmi::Mpiexec mpx(bed.machine, bed.apps, bed.machine.login_node(), spec);
      mpx.start();
      auto cmds = mpx.proxy_commands();
      for (std::size_t k = 0; k < cmds.size(); ++k) {
        os::ExecOptions o;
        o.binary = pmi::kProxyBinary;
        os::run_command(bed.machine, bed.apps, static_cast<os::NodeId>(k),
                        cmds[k], {}, std::move(o));
      }
      if (co_await mpx.wait() == 0) ++ok;
      // mpx destroyed here; its port, actors, and handlers must vanish.
    }
  }(bed, ok));
  bed.engine.run();
  EXPECT_EQ(ok, 50);
  EXPECT_EQ(bed.machine.process_count(), 0u);
  // Listener table back to empty: no port leaks across 50 mpiexec lives.
  EXPECT_EQ(bed.machine.network().listener_count(), 0u);
}

}  // namespace
}  // namespace jets::sim
