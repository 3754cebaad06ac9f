// Cross-module edge cases: Hydra misuse, fabric corner geometry, stats
// boundaries, standalone lifecycle, and Swift/Coasters unusual sequences.
#include <gtest/gtest.h>

#include "apps/namd.hh"
#include "apps/synthetic.hh"
#include "core/standalone.hh"
#include "net/fabric.hh"
#include "pmi/hydra.hh"
#include "swift/coasters.hh"
#include "swift/engine.hh"
#include "testbed.hh"

namespace jets {
namespace {

using sim::Task;
using test::TestBed;

// --- Hydra misuse -----------------------------------------------------------

TEST(HydraEdge, ProxyCommandsBeforeStartThrows) {
  TestBed bed(os::Machine::breadboard(2));
  pmi::MpiexecSpec spec;
  spec.user_argv = {"noop"};
  pmi::Mpiexec mpx(bed.machine, bed.apps, 0, spec);
  EXPECT_THROW((void)mpx.proxy_commands(), std::logic_error);
}

TEST(HydraEdge, SshLaunchNeedsEnoughHosts) {
  TestBed bed(os::Machine::breadboard(2));
  pmi::MpiexecSpec spec;
  spec.user_argv = {"noop"};
  spec.nprocs = 4;
  pmi::Mpiexec mpx(bed.machine, bed.apps, bed.machine.login_node(), spec);
  mpx.start();
  EXPECT_THROW(mpx.launch_via_ssh({0, 1}, sim::milliseconds(1)),
               std::invalid_argument);
}

TEST(HydraEdge, AbortIsIdempotentAndReleasesWaiters) {
  TestBed bed(os::Machine::breadboard(2));
  bed.apps.install("noop", [](os::Env&) -> Task<void> { co_return; });
  pmi::MpiexecSpec spec;
  spec.user_argv = {"noop"};
  pmi::Mpiexec mpx(bed.machine, bed.apps, bed.machine.login_node(), spec);
  mpx.start();
  int rc = -1;
  bed.engine.spawn("w", [](pmi::Mpiexec& mpx, int& rc) -> Task<void> {
    rc = co_await mpx.wait();
  }(mpx, rc));
  bed.engine.call_at(sim::seconds(1), [&] {
    mpx.abort("test");
    mpx.abort("again");  // idempotent
  });
  bed.engine.run();
  EXPECT_EQ(rc, 1);
  EXPECT_TRUE(mpx.done());
}

TEST(HydraEdge, StartIsIdempotent) {
  TestBed bed(os::Machine::breadboard(2));
  pmi::MpiexecSpec spec;
  spec.user_argv = {"noop"};
  pmi::Mpiexec mpx(bed.machine, bed.apps, bed.machine.login_node(), spec);
  mpx.start();
  const auto addr = mpx.control_address();
  mpx.start();  // no rebind, no new port
  EXPECT_EQ(mpx.control_address().port, addr.port);
}

// --- Fabric corners -----------------------------------------------------------

TEST(FabricEdge, LoopbackIsCheapestPath) {
  net::TorusTcpFabric f(net::TorusShape{4, 4, 4});
  EXPECT_LT(f.transfer_time(3, 3, 4096), f.transfer_time(3, 2, 4096));
}

TEST(FabricEdge, ServiceNodeChargedFixedHops) {
  net::TorusShape s{4, 4, 4};
  // Any out-of-torus id (login node) is service_hops away from anywhere.
  EXPECT_EQ(s.hops(0, 64), s.service_hops);
  EXPECT_EQ(s.hops(63, 200), s.service_hops);
}

TEST(FabricEdge, ZeroByteTransferStillPaysLatency) {
  net::EthernetFabric f(sim::microseconds(60), 125e6);
  EXPECT_EQ(f.transfer_time(0, 1, 0), sim::microseconds(60));
}

// --- Stats boundaries -----------------------------------------------------------

TEST(StatsEdge, EmptySummaryIsSafe) {
  sim::Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(StatsEdge, HistogramRejectsDegenerateRanges) {
  EXPECT_THROW(sim::Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(sim::Histogram(0.0, 10.0, 0), std::invalid_argument);
}

TEST(StatsEdge, DownsampleDegenerateCases) {
  sim::TimeSeries ts;
  EXPECT_EQ(ts.downsample(10).size(), 0u);
  ts.add(sim::seconds(1), 1.0);
  EXPECT_EQ(ts.downsample(0).size(), 0u);
  EXPECT_EQ(ts.downsample(10).size(), 1u);
}

// --- Stand-alone lifecycle -------------------------------------------------------

TEST(StandaloneEdge, RunBatchBeforeStartThrows) {
  TestBed bed(os::Machine::breadboard(2));
  core::StandaloneJets jets(bed.machine, bed.apps, core::StandaloneOptions{});
  bool threw = false;
  bed.engine.spawn("t", [](core::StandaloneJets& jets, bool& threw) -> Task<void> {
    try {
      (void)co_await jets.run_batch({});
    } catch (const std::logic_error&) {
      threw = true;
    }
  }(jets, threw));
  bed.engine.run();
  EXPECT_TRUE(threw);
}

TEST(StandaloneEdge, EmptyBatchCompletesInstantly) {
  TestBed bed(os::Machine::breadboard(2));
  core::StandaloneJets jets(bed.machine, bed.apps, core::StandaloneOptions{});
  jets.start({0, 1});
  core::BatchReport report;
  report.completed = 99;  // must be overwritten
  bed.engine.spawn("t", [](core::StandaloneJets& jets,
                           core::BatchReport& out) -> Task<void> {
    out = co_await jets.run_batch({});
  }(jets, report));
  bed.engine.run();
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(report.records.size(), 0u);
}

TEST(StandaloneEdge, WaitWorkersSubsetReturnsEarly) {
  TestBed bed(os::Machine::surveyor(8));
  core::StandaloneOptions opts;
  core::StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start({0, 1, 2, 3, 4, 5, 6, 7});
  sim::Time two_at = -1, all_at = -1;
  bed.engine.spawn("t", [](sim::Engine& e, core::StandaloneJets& jets,
                           sim::Time& two, sim::Time& all) -> Task<void> {
    co_await jets.wait_workers(2);
    two = e.now();
    co_await jets.wait_workers();
    all = e.now();
  }(bed.engine, jets, two_at, all_at));
  bed.engine.run();
  EXPECT_GE(two_at, 0);
  EXPECT_LE(two_at, all_at);
}

TEST(StandaloneEdge, UtilizationMatchesHandComputation) {
  // One 4-worker MPI job of exactly 10 s on 8 slots over a known window.
  core::BatchReport r;
  r.batch_started = 0;
  r.batch_finished = sim::seconds(20);
  r.total_slots = 8;
  core::JobRecord rec;
  rec.status = core::JobStatus::kDone;
  rec.spec.kind = core::JobKind::kMpi;
  rec.spec.nprocs = 4;
  rec.started_at = sim::seconds(2);
  rec.finished_at = sim::seconds(12);
  r.records.push_back(rec);
  // busy = 10 s x 4 workers = 40; capacity = 8 x 20 = 160.
  EXPECT_DOUBLE_EQ(r.utilization(), 0.25);
}

// --- Swift / Coasters unusual sequences -----------------------------------------

TEST(SwiftEdge, RunToCompletionTwiceIsIdempotent) {
  TestBed bed(os::Machine::eureka(2));
  apps::install_synthetic_apps(bed.apps);
  bed.machine.shared_fs().put("noop", 16'384);
  swift::CoasterService::Config cfg;
  swift::CoasterService coasters(bed.machine, bed.apps, cfg);
  coasters.start_on({0, 1});
  swift::SwiftEngine swiftEngine(bed.machine, coasters);
  auto out = swiftEngine.file("/gpfs/x");
  swiftEngine.app({.argv = {"noop"}, .inputs = {}, .outputs = {out}});
  int runs = 0;
  bed.engine.spawn("t", [](swift::SwiftEngine& s, int& runs) -> Task<void> {
    co_await s.run_to_completion();
    ++runs;
    co_await s.run_to_completion();  // already complete: immediate
    ++runs;
  }(swiftEngine, runs));
  bed.engine.run();
  EXPECT_EQ(runs, 2);
}

TEST(SwiftEdge, EmptyWorkflowCompletesImmediately) {
  TestBed bed(os::Machine::eureka(2));
  swift::CoasterService::Config cfg;
  swift::CoasterService coasters(bed.machine, bed.apps, cfg);
  coasters.start_on({0, 1});
  swift::SwiftEngine swiftEngine(bed.machine, coasters);
  bool done = false;
  bed.engine.spawn("t", [](swift::SwiftEngine& s, bool& done) -> Task<void> {
    co_await s.run_to_completion();
    done = true;
  }(swiftEngine, done));
  bed.engine.run();
  EXPECT_TRUE(done);
  // The clock only advances for the idle workers' registration traffic.
  EXPECT_LT(bed.engine.now(), sim::seconds(1));
}

TEST(NamdModelEdge, SampleIsDeterministicPerTagAndAboveFloor) {
  apps::NamdModel m;
  const double a = apps::sample_segment_seconds(m, "case-1");
  const double b = apps::sample_segment_seconds(m, "case-1");
  const double c = apps::sample_segment_seconds(m, "case-2");
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_GT(a, 0.9 * m.median_seconds);  // floor holds
}

}  // namespace
}  // namespace jets
