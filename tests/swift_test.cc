// Tests for the Swift dataflow engine, the CoasterService (incl. MPI jobs
// through the MPICH/Coasters path and block allocation), and the REM
// workflow builder.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/namd.hh"
#include "apps/rem.hh"
#include "apps/synthetic.hh"
#include "swift/coasters.hh"
#include "swift/dataflow.hh"
#include "swift/engine.hh"
#include "testbed.hh"

namespace jets::swift {
namespace {

using test::TestBed;

struct SwiftBed : TestBed {
  explicit SwiftBed(os::MachineSpec spec) : TestBed(std::move(spec)) {
    apps::install_synthetic_apps(apps);
    apps::NamdModel model;
    model.median_seconds = 2.0;  // keep simulated walltimes short in tests
    model.sigma = 0.1;
    apps::install_namd_app(apps, model);
    for (const char* n : {"noop", "sleep", "mpi_sleep", "mpi_sleep_write",
                          "namd_segment"}) {
      machine.shared_fs().put(n, 1'000'000);
    }
  }

  CoasterService::Config coasters_config(int workers_per_node = 1) {
    CoasterService::Config c;
    c.worker.task_overhead = sim::milliseconds(2);
    c.workers_per_node = workers_per_node;
    return c;
  }

  static std::vector<os::NodeId> nodes(std::size_t n) {
    std::vector<os::NodeId> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<os::NodeId>(i));
    return v;
  }
};

TEST(DataVar, SingleAssignmentEnforced) {
  DataVar var("/gpfs/x");
  EXPECT_FALSE(var.is_set());
  var.set();
  EXPECT_TRUE(var.is_set());
  EXPECT_THROW(var.set(), std::logic_error);
}

TEST(Coasters, RunsSequentialJob) {
  SwiftBed bed(os::Machine::eureka(4));
  CoasterService coasters(bed.machine, bed.apps, bed.coasters_config());
  coasters.start_on(SwiftBed::nodes(4));
  core::JobRecord rec;
  bed.engine.spawn("t", [](CoasterService& c, core::JobRecord& rec) -> sim::Task<void> {
    core::JobSpec spec;
    spec.argv = {"sleep", "1"};
    rec = co_await c.run_job(std::move(spec));
  }(coasters, rec));
  bed.engine.run();
  EXPECT_EQ(rec.status, core::JobStatus::kDone);
  EXPECT_GE(rec.wall_seconds(), 1.0);
}

TEST(Coasters, RunsMpiJobThroughJetsPath) {
  SwiftBed bed(os::Machine::eureka(8));
  CoasterService coasters(bed.machine, bed.apps, bed.coasters_config());
  coasters.start_on(SwiftBed::nodes(8));
  core::JobRecord rec;
  bed.engine.spawn("t", [](CoasterService& c, core::JobRecord& rec) -> sim::Task<void> {
    core::JobSpec spec;
    spec.kind = core::JobKind::kMpi;
    spec.nprocs = 4;
    spec.argv = {"mpi_sleep", "1"};
    rec = co_await c.run_job(std::move(spec));
  }(coasters, rec));
  bed.engine.run();
  EXPECT_EQ(rec.status, core::JobStatus::kDone);
}

TEST(Coasters, BlockAllocationProvisionsWorkers) {
  SwiftBed bed(os::Machine::eureka(32));
  os::BatchScheduler sched(bed.machine, {}, sim::Rng(3));
  CoasterService coasters(bed.machine, bed.apps, bed.coasters_config());
  coasters.start_with_blocks(sched, 16, sim::seconds(7200), /*spectrum=*/false);
  bed.engine.run_until(sim::seconds(600));
  EXPECT_EQ(coasters.worker_count(), 16u);
  EXPECT_EQ(coasters.service().connected_workers(), 16u);
}

TEST(Coasters, SpectrumBlocksArriveIncrementally) {
  // With the spectrum allocator, the first (small) block should connect
  // workers earlier than the single big block would.
  auto first_worker_time = [](bool spectrum) {
    SwiftBed bed(os::Machine::eureka(80));
    os::BatchScheduler::Policy policy;
    policy.boot_time = sim::seconds(60);
    policy.wait_per_node = sim::seconds(2);  // big requests queue long
    os::BatchScheduler sched(bed.machine, policy, sim::Rng(3));
    CoasterService coasters(bed.machine, bed.apps, bed.coasters_config());
    coasters.start_with_blocks(sched, 64, sim::seconds(7200), spectrum);
    sim::Time first = -1;
    // Poll once per second for the first connected worker.
    for (int t = 1; t <= 3600 && first < 0; ++t) {
      bed.engine.run_until(sim::seconds(t));
      if (coasters.service().connected_workers() > 0) first = bed.engine.now();
    }
    return sim::to_seconds(first);
  };
  const double single = first_worker_time(false);
  const double spectrum = first_worker_time(true);
  EXPECT_LT(spectrum, single);
}

TEST(SwiftEngine, StatementsFireOnDataAvailability) {
  SwiftBed bed(os::Machine::eureka(4));
  CoasterService coasters(bed.machine, bed.apps, bed.coasters_config());
  coasters.start_on(SwiftBed::nodes(4));
  SwiftEngine swift(bed.machine, coasters);
  auto a = swift.file("/gpfs/a");
  auto b = swift.file("/gpfs/b");
  auto c = swift.file("/gpfs/c");
  // c depends on b depends on a: a chain, despite registration order.
  swift.app({.argv = {"sleep", "1"}, .inputs = {b}, .outputs = {c}});
  swift.app({.argv = {"sleep", "1"}, .inputs = {a}, .outputs = {b}});
  a->set();
  bed.engine.spawn("t", [](SwiftEngine& s) -> sim::Task<void> {
    co_await s.run_to_completion();
  }(swift));
  bed.engine.run();
  EXPECT_EQ(swift.completed(), 2u);
  EXPECT_TRUE(c->is_set());
  // Serialized by dataflow: at least 2 s of app time.
  EXPECT_GE(bed.engine.now(), sim::seconds(2));
}

TEST(SwiftEngine, IndependentStatementsRunConcurrently) {
  SwiftBed bed(os::Machine::eureka(8));
  CoasterService coasters(bed.machine, bed.apps, bed.coasters_config());
  coasters.start_on(SwiftBed::nodes(8));
  SwiftEngine swift(bed.machine, coasters);
  for (int i = 0; i < 8; ++i) {
    auto out = swift.file("/gpfs/out" + std::to_string(i));
    swift.app({.argv = {"sleep", "2"}, .inputs = {}, .outputs = {out}});
  }
  bed.engine.spawn("t", [](SwiftEngine& s) -> sim::Task<void> {
    co_await s.run_to_completion();
  }(swift));
  bed.engine.run();
  EXPECT_EQ(swift.completed(), 8u);
  EXPECT_LT(sim::to_seconds(bed.engine.now()), 4.0);  // ran in parallel
}

TEST(SwiftEngine, LoginNodeAppsDoNotConsumeWorkers) {
  SwiftBed bed(os::Machine::eureka(2));
  CoasterService coasters(bed.machine, bed.apps, bed.coasters_config());
  coasters.start_on(SwiftBed::nodes(2));
  SwiftEngine swift(bed.machine, coasters);
  auto tok = swift.file("/gpfs/token", 100);
  swift.app({.argv = {"exchange"},
             .inputs = {},
             .outputs = {tok},
             .run_on_login = true,
             .login_cost = sim::seconds(1)});
  bed.engine.spawn("t", [](SwiftEngine& s) -> sim::Task<void> {
    co_await s.run_to_completion();
  }(swift));
  bed.engine.run();
  EXPECT_TRUE(tok->is_set());
  EXPECT_TRUE(bed.machine.shared_fs().exists("/gpfs/token"));
  // No Coasters job was involved.
  EXPECT_EQ(swift.job_records().size(), 0u);
}

TEST(SwiftEngine, FailedAppAbortsRun) {
  SwiftBed bed(os::Machine::eureka(2));
  bed.apps.install("boom", [](os::Env&) -> sim::Task<void> {
    throw std::runtime_error("app error");
  });
  CoasterService::Config cfg;
  cfg.service.retry.max_attempts = 1;
  cfg.worker.task_overhead = sim::milliseconds(2);
  CoasterService coasters(bed.machine, bed.apps, cfg);
  coasters.start_on(SwiftBed::nodes(2));
  SwiftEngine swift(bed.machine, coasters);
  auto out = swift.file("/gpfs/never");
  swift.app({.argv = {"boom"}, .inputs = {}, .outputs = {out}});
  bed.engine.spawn("t", [](SwiftEngine& s) -> sim::Task<void> {
    co_await s.run_to_completion();
  }(swift));
  bed.engine.run();
  EXPECT_EQ(swift.failed(), 1u);
  EXPECT_FALSE(out->is_set());
}

/// The job that ran `argv[1] == tag` among `swift`'s records.
const core::JobRecord* job_tagged(const SwiftEngine& swift, const char* tag) {
  for (const core::JobRecord& rec : swift.job_records()) {
    if (rec.spec.argv.size() > 1 && rec.spec.argv[1] == tag) return &rec;
  }
  return nullptr;
}

void run_script(test::TestBed& bed, SwiftEngine& swift) {
  bed.engine.spawn("t", [](SwiftEngine& s) -> sim::Task<void> {
    co_await s.run_to_completion();
  }(swift));
  bed.engine.run();
}

TEST(SwiftEngine, StatementStartsSubmitOverheadAfterItsInputIsSet) {
  SwiftBed bed(os::Machine::eureka(2));
  CoasterService coasters(bed.machine, bed.apps, bed.coasters_config());
  coasters.start_on(SwiftBed::nodes(2));
  SwiftEngine::Config config;
  config.submit_overhead = sim::milliseconds(30);
  SwiftEngine swift(bed.machine, coasters, config);
  auto in = swift.file("/gpfs/in");
  swift.app({.argv = {"noop", "S"}, .inputs = {in}, .outputs = {}});
  bed.engine.call_at(sim::seconds(4), [&] { in->set(); });
  run_script(bed, swift);
  ASSERT_EQ(swift.completed(), 1u);
  EXPECT_EQ(swift.job_records().at(0).submitted_at,
            sim::seconds(4) + sim::milliseconds(30));
}

TEST(SwiftEngine, ParkedStatementsWakeInParkOrder) {
  // S1 parks on `a`, S2 on `d`; at 1 s S1 moves on to `d`, behind S2. So
  // `d` wakes S2 first, although S1 registered first and counts on `d`
  // too.
  SwiftBed bed(os::Machine::eureka(2));
  CoasterService coasters(bed.machine, bed.apps, bed.coasters_config());
  coasters.start_on(SwiftBed::nodes(2));
  SwiftEngine swift(bed.machine, coasters);
  auto a = swift.file("/gpfs/a");
  auto d = swift.file("/gpfs/d");
  swift.app({.argv = {"noop", "S1"}, .inputs = {a, d}, .outputs = {}});
  swift.app({.argv = {"noop", "S2"}, .inputs = {d}, .outputs = {}});
  bed.engine.call_at(sim::seconds(1), [&] { a->set(); });
  bed.engine.call_at(sim::seconds(2), [&] { d->set(); });
  run_script(bed, swift);
  ASSERT_EQ(swift.completed(), 2u);
  EXPECT_EQ(job_tagged(swift, "S2")->id, 1u);
  EXPECT_EQ(job_tagged(swift, "S1")->id, 2u);
}

TEST(SwiftEngine, InputSetInTheRegistrationInstantKeepsRegistrationOrder) {
  // `a` is set after both app() calls but before S1's first activation,
  // which therefore finds it set: S1 starts first, as it registered first.
  SwiftBed bed(os::Machine::eureka(2));
  CoasterService coasters(bed.machine, bed.apps, bed.coasters_config());
  coasters.start_on(SwiftBed::nodes(2));
  SwiftEngine swift(bed.machine, coasters);
  auto a = swift.file("/gpfs/a");
  swift.app({.argv = {"noop", "S1"}, .inputs = {a}, .outputs = {}});
  swift.app({.argv = {"noop", "S2"}, .inputs = {}, .outputs = {}});
  a->set();
  run_script(bed, swift);
  ASSERT_EQ(swift.completed(), 2u);
  EXPECT_EQ(job_tagged(swift, "S1")->id, 1u);
  EXPECT_EQ(job_tagged(swift, "S2")->id, 2u);
}

TEST(SwiftEngine, WaitingStatementsHoldNoActor) {
  SwiftBed bed(os::Machine::eureka(4));
  CoasterService coasters(bed.machine, bed.apps, bed.coasters_config());
  coasters.start_on(SwiftBed::nodes(4));
  bed.engine.run_until(sim::seconds(1));  // workers registered and idle
  SwiftEngine swift(bed.machine, coasters);
  auto gate = swift.file("/gpfs/gate");
  constexpr std::size_t kWaiting = 50;
  const std::size_t before = bed.engine.live_actor_count();
  for (std::size_t i = 0; i < kWaiting; ++i) {
    swift.app({.argv = {"noop"}, .inputs = {gate}, .outputs = {}});
  }
  bed.engine.run_until(sim::seconds(10));
  EXPECT_EQ(bed.engine.live_actor_count(), before);
  gate->set();
  bed.engine.run_until(bed.engine.now());  // the activations
  EXPECT_EQ(bed.engine.live_actor_count(), before + kWaiting);
  run_script(bed, swift);
  EXPECT_EQ(swift.completed(), kWaiting);
}

TEST(SwiftEngine, DestroyedEngineLeavesNothingOnItsVariables) {
  // Variables outlive the engine that parked statements on them: a set()
  // afterwards must find no record, and a queued activation must not run.
  SwiftBed bed(os::Machine::eureka(2));
  CoasterService coasters(bed.machine, bed.apps, bed.coasters_config());
  coasters.start_on(SwiftBed::nodes(2));
  bed.engine.run_until(sim::seconds(1));
  auto a = make_data("/gpfs/a");
  auto b = make_data("/gpfs/b");
  {
    SwiftEngine swift(bed.machine, coasters);
    swift.app({.argv = {"noop"}, .inputs = {a}, .outputs = {}});
    swift.app({.argv = {"noop"}, .inputs = {b, a}, .outputs = {}});
    swift.app({.argv = {"noop"}, .inputs = {a}, .outputs = {}});
    bed.engine.run_until(sim::seconds(2));  // all three parked
    swift.app({.argv = {"noop"}, .inputs = {}, .outputs = {}});  // queued
  }
  const std::size_t actors = bed.engine.live_actor_count();
  a->set();
  b->set();
  bed.engine.run_until(sim::seconds(3));
  EXPECT_EQ(bed.engine.live_actor_count(), actors);
  EXPECT_EQ(coasters.service().job_table_size(), 0u);
}

// A started statement's actor uses its engine when it resumes: one
// destroyed inside submit_overhead (before the job is submitted) or while
// the job runs must be killed with the engine, not resume into freed
// memory (checked under ASan).
TEST(SwiftEngine, DestroyedEngineKillsStatementInsideSubmitOverhead) {
  SwiftBed bed(os::Machine::eureka(2));
  CoasterService coasters(bed.machine, bed.apps, bed.coasters_config());
  coasters.start_on(SwiftBed::nodes(2));
  bed.engine.run_until(sim::seconds(1));
  const std::size_t actors = bed.engine.live_actor_count();
  auto out = make_data("/gpfs/out");
  {
    SwiftEngine swift(bed.machine, coasters);  // submit_overhead: 20 ms
    swift.app({.argv = {"noop"}, .inputs = {}, .outputs = {out}});
    bed.engine.run_until(bed.engine.now() + sim::milliseconds(10));
    EXPECT_EQ(bed.engine.live_actor_count(), actors + 1);
  }
  EXPECT_EQ(bed.engine.live_actor_count(), actors);
  bed.engine.run_until(sim::seconds(3));
  EXPECT_FALSE(out->is_set());
  EXPECT_EQ(coasters.service().job_table_size(), 0u);
}

TEST(SwiftEngine, DestroyedEngineKillsStatementWhoseJobRuns) {
  SwiftBed bed(os::Machine::eureka(2));
  CoasterService coasters(bed.machine, bed.apps, bed.coasters_config());
  coasters.start_on(SwiftBed::nodes(2));
  bed.engine.run_until(sim::seconds(1));
  auto out = make_data("/gpfs/out");
  {
    SwiftEngine swift(bed.machine, coasters);
    swift.app({.argv = {"sleep", "5"}, .inputs = {}, .outputs = {out}});
    bed.engine.run_until(sim::seconds(2));
    ASSERT_EQ(coasters.service().running_jobs(), 1u);
  }
  // The job was already the service's: it still runs to completion, and
  // nobody is left to take its record or set the output.
  bed.engine.run_until(sim::seconds(10));
  EXPECT_EQ(coasters.service().completed_jobs(), 1u);
  EXPECT_FALSE(out->is_set());
}

TEST(RemWorkflow, SingleProcessDataflowCompletes) {
  SwiftBed bed(os::Machine::eureka(8));
  CoasterService coasters(bed.machine, bed.apps, bed.coasters_config());
  coasters.start_on(SwiftBed::nodes(8));
  SwiftEngine swift(bed.machine, coasters);
  apps::RemWorkflowConfig cfg;
  cfg.replicas = 4;
  cfg.exchanges = 3;
  cfg.mpi = false;
  cfg.namd.median_seconds = 2.0;
  build_rem_workflow(swift, cfg);
  bed.engine.spawn("t", [](SwiftEngine& s) -> sim::Task<void> {
    co_await s.run_to_completion();
  }(swift));
  bed.engine.run();
  EXPECT_EQ(swift.failed(), 0u);
  // 4x3 segments ran as Coasters jobs.
  EXPECT_EQ(swift.job_records().size(),
            static_cast<std::size_t>(apps::rem_segment_count(cfg)));
}

TEST(RemWorkflow, MpiSegmentsAndDependencyOrdering) {
  SwiftBed bed(os::Machine::eureka(8));
  CoasterService coasters(bed.machine, bed.apps, bed.coasters_config(8));
  coasters.start_on(SwiftBed::nodes(8));
  SwiftEngine swift(bed.machine, coasters);
  apps::RemWorkflowConfig cfg;
  cfg.replicas = 4;
  cfg.exchanges = 2;
  cfg.mpi = true;
  cfg.nprocs = 16;
  cfg.ppn = 8;
  cfg.namd.median_seconds = 2.0;
  build_rem_workflow(swift, cfg);
  bed.engine.spawn("t", [](SwiftEngine& s) -> sim::Task<void> {
    co_await s.run_to_completion();
  }(swift));
  bed.engine.run();
  EXPECT_EQ(swift.failed(), 0u);
  // Column j=2 segments must start after their column-1 ancestors end:
  // with a 2 s median and exchange cost, the run spans > 4 s.
  EXPECT_GT(sim::to_seconds(bed.engine.now()), 4.0);
}

}  // namespace
}  // namespace jets::swift
