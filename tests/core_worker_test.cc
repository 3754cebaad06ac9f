// Focused tests for service edge cases, the data channel, and the
// dispatcher's bookkeeping under unusual sequences.
#include <gtest/gtest.h>

#include "apps/synthetic.hh"
#include "core/service.hh"
#include "core/standalone.hh"
#include "core/worker.hh"
#include "testbed.hh"

namespace jets::core {
namespace {

using test::TestBed;

struct EdgeBed : TestBed {
  explicit EdgeBed(std::size_t nodes)
      : TestBed(os::Machine::breadboard(nodes)) {
    apps::install_synthetic_apps(apps);
    machine.shared_fs().put("sleep", 16'384);
    machine.shared_fs().put("noop", 16'384);
  }

  std::vector<os::NodeId> nodes(std::size_t n) const {
    std::vector<os::NodeId> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<os::NodeId>(i));
    return v;
  }
};

TEST(ServiceEdge, SubmitWithEmptyArgvThrows) {
  EdgeBed bed(2);
  Service service(bed.machine, bed.apps, bed.machine.login_node());
  EXPECT_THROW(service.submit(JobSpec{}), std::invalid_argument);
}

TEST(ServiceEdge, WaitAllWithNoJobsReturnsImmediately) {
  EdgeBed bed(2);
  Service service(bed.machine, bed.apps, bed.machine.login_node());
  service.start();
  bool done = false;
  bed.engine.spawn("t", [](Service& s, bool& done) -> sim::Task<void> {
    co_await s.wait_all();
    done = true;
  }(service, done));
  bed.engine.run();
  EXPECT_TRUE(done);
}

TEST(ServiceEdge, UnknownCommandFailsTheJobNotTheSimulation) {
  EdgeBed bed(2);
  StandaloneOptions opts;
  opts.service.retry.max_attempts = 2;
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(bed.nodes(2));
  JobSpec bad;
  bad.argv = {"no_such_program"};
  BatchReport report;
  bed.engine.spawn("t", [](StandaloneJets& jets, JobSpec bad,
                           BatchReport& out) -> sim::Task<void> {
    std::vector<JobSpec> batch;
    batch.push_back(std::move(bad));
    out = co_await jets.run_batch(std::move(batch));
  }(jets, std::move(bad), report));
  bed.engine.run();
  EXPECT_EQ(report.failed, 1u);
  // Both attempts died inside the app (exec failure), so the job is
  // quarantined as poison with an app-exit reason.
  EXPECT_EQ(report.records[0].status, JobStatus::kQuarantined);
  EXPECT_EQ(report.records[0].last_reason, FailureReason::kAppExit);
}

TEST(ServiceEdge, SecondBatchReusesIdleWorkers) {
  EdgeBed bed(4);
  StandaloneOptions opts;
  opts.worker.task_overhead = sim::milliseconds(2);
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(bed.nodes(4));
  std::vector<double> makespans;
  bed.engine.spawn("t", [](StandaloneJets& jets,
                           std::vector<double>& out) -> sim::Task<void> {
    co_await jets.wait_workers();
    for (int round = 0; round < 3; ++round) {
      std::vector<JobSpec> jobs(8);
      for (auto& j : jobs) j.argv = {"sleep", "1"};
      BatchReport r = co_await jets.run_batch(std::move(jobs));
      EXPECT_EQ(r.completed, 8u);
      out.push_back(r.makespan_seconds());
    }
  }(jets, makespans));
  bed.engine.run();
  ASSERT_EQ(makespans.size(), 3u);
  // Persistent pilots: later rounds pay no re-registration and match the
  // first round's pace.
  EXPECT_NEAR(makespans[1], makespans[0], 0.5);
  EXPECT_NEAR(makespans[2], makespans[0], 0.5);
}

TEST(ServiceEdge, HooksFireOncePerSettledJob) {
  EdgeBed bed(2);
  StandaloneOptions opts;
  opts.worker.task_overhead = sim::milliseconds(2);
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(bed.nodes(2));
  int starts = 0, finishes = 0;
  jets.service().hooks().on_job_start = [&](const JobRecord&) { ++starts; };
  jets.service().hooks().on_job_finish = [&](const JobRecord&) { ++finishes; };
  std::vector<JobSpec> jobs(6);
  for (auto& j : jobs) j.argv = {"noop"};
  bed.engine.spawn("t", [](StandaloneJets& jets,
                           std::vector<JobSpec> jobs) -> sim::Task<void> {
    (void)co_await jets.run_batch(std::move(jobs));
  }(jets, std::move(jobs)));
  bed.engine.run();
  EXPECT_EQ(starts, 6);
  EXPECT_EQ(finishes, 6);
}

TEST(ServiceEdge, LateWorkersPickUpQueuedJobs) {
  // Jobs submitted before any worker exists must run once workers arrive
  // (the Coasters block-allocation pattern).
  EdgeBed bed(4);
  Service service(bed.machine, bed.apps, bed.machine.login_node());
  service.start();
  JobSpec j;
  j.argv = {"noop"};
  service.submit(j);
  service.submit(j);
  // Workers arrive 30 s later.
  bed.engine.call_at(sim::seconds(30), [&] {
    WorkerConfig wc;
    wc.service = service.address();
    for (int i = 0; i < 2; ++i) {
      start_worker(bed.machine, bed.apps, static_cast<os::NodeId>(i), wc);
    }
  });
  bool done = false;
  bed.engine.spawn("t", [](Service& s, bool& done) -> sim::Task<void> {
    co_await s.wait_all();
    done = true;
  }(service, done));
  bed.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(service.completed_jobs(), 2u);
  EXPECT_GE(bed.engine.now(), sim::seconds(30));
}

TEST(ServiceEdge, RecordsSurviveRetriesWithAccurateAttempts) {
  EdgeBed bed(3);
  int failures_left = 2;
  bed.apps.install("flaky", [&failures_left](os::Env&) -> sim::Task<void> {
    if (failures_left > 0) {
      --failures_left;
      throw std::runtime_error("transient");
    }
    co_return;
  });
  StandaloneOptions opts;
  opts.service.retry.max_attempts = 5;
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(bed.nodes(3));
  BatchReport report;
  bed.engine.spawn("t", [](StandaloneJets& jets, BatchReport& out) -> sim::Task<void> {
    JobSpec j;
    j.argv = {"flaky"};
    std::vector<JobSpec> batch;
    batch.push_back(std::move(j));
    out = co_await jets.run_batch(std::move(batch));
  }(jets, report));
  bed.engine.run();
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.records[0].attempts, 3);  // 2 failures + 1 success
  EXPECT_EQ(report.records[0].status, JobStatus::kDone);
}

TEST(ServiceEdge, MpiJobLargerThanAllocationTimesOutCleanly) {
  EdgeBed bed(2);
  bed.machine.shared_fs().put("mpi_sleep", 1'000'000);
  StandaloneJets jets(bed.machine, bed.apps, StandaloneOptions{});
  jets.start(bed.nodes(2));
  JobSpec wide;
  wide.kind = JobKind::kMpi;
  wide.nprocs = 16;  // can never fit 2 workers
  wide.argv = {"mpi_sleep", "1"};
  wide.timeout = sim::seconds(20);
  BatchReport report;
  bed.engine.spawn("t", [](StandaloneJets& jets, JobSpec wide,
                           BatchReport& out) -> sim::Task<void> {
    std::vector<JobSpec> batch;
    batch.push_back(std::move(wide));
    out = co_await jets.run_batch(std::move(batch));
  }(jets, std::move(wide), report));
  bed.engine.run();
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(jets.service().pending_jobs(), 0u);
}

TEST(DataChannel, StageToWorkersLandsInLocalStorage) {
  EdgeBed bed(4);
  bed.machine.shared_fs().put("/gpfs/dataset", 40'000'000);
  StandaloneOptions opts;
  opts.worker.task_overhead = sim::milliseconds(2);
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(bed.nodes(4));
  sim::Time staged_at = -1;
  bed.engine.spawn("t", [](EdgeBed& bed, StandaloneJets& jets,
                           sim::Time& staged_at) -> sim::Task<void> {
    co_await jets.wait_workers();
    co_await jets.service().stage_to_workers("/gpfs/dataset");
    staged_at = bed.engine.now();
  }(bed, jets, staged_at));
  bed.engine.run();
  EXPECT_GT(staged_at, 0);
  for (os::NodeId n = 0; n < 4; ++n) {
    EXPECT_TRUE(bed.machine.node(n).local_fs().exists("/gpfs/dataset")) << n;
    EXPECT_EQ(bed.machine.node(n).local_fs().size("/gpfs/dataset"),
              std::optional<std::uint64_t>(40'000'000));
  }
}

TEST(DataChannel, StagingChargesWireTime) {
  // 40 MB over GigE (125 MB/s) cannot arrive instantly.
  EdgeBed bed(2);
  bed.machine.shared_fs().put("/gpfs/dataset", 40'000'000);
  StandaloneJets jets(bed.machine, bed.apps, StandaloneOptions{});
  jets.start(bed.nodes(2));
  sim::Time start = -1, done = -1;
  bed.engine.spawn("t", [](EdgeBed& bed, StandaloneJets& jets, sim::Time& start,
                           sim::Time& done) -> sim::Task<void> {
    co_await jets.wait_workers();
    start = bed.engine.now();
    co_await jets.service().stage_to_workers("/gpfs/dataset");
    done = bed.engine.now();
  }(bed, jets, start, done));
  bed.engine.run();
  EXPECT_GE(done - start, sim::from_seconds(40e6 / 125e6));
}

TEST(DataChannel, StagingUnknownFileThrows) {
  EdgeBed bed(2);
  StandaloneJets jets(bed.machine, bed.apps, StandaloneOptions{});
  jets.start(bed.nodes(2));
  bool threw = false;
  bed.engine.spawn("t", [](StandaloneJets& jets, bool& threw) -> sim::Task<void> {
    try {
      co_await jets.service().stage_to_workers("/gpfs/missing");
    } catch (const std::invalid_argument&) {
      threw = true;
    }
  }(jets, threw));
  bed.engine.run();
  EXPECT_TRUE(threw);
}

TEST(DataChannel, StagesEachNodeOnceWhateverItsWorkerCount) {
  // Two workers per node: the channel stages through one of them, so each
  // node gets one copy, and a later job naming the file finds it warm.
  constexpr std::size_t kNodes = 4;
  EdgeBed bed(kNodes);
  bed.machine.shared_fs().put("/gpfs/dataset", 8'000'000);
  StandaloneOptions opts;
  opts.workers_per_node = 2;
  opts.worker.task_overhead = sim::milliseconds(2);
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(bed.nodes(kNodes));
  std::size_t copies = 0;
  BatchReport report;
  bed.engine.spawn("t", [](StandaloneJets& jets, std::size_t& copies,
                           BatchReport& out) -> sim::Task<void> {
    co_await jets.wait_workers();
    EXPECT_EQ(jets.service().connected_workers(), 2 * kNodes);
    co_await jets.service().stage_to_workers("/gpfs/dataset");
    copies = jets.service().stage_pushes() + jets.service().stage_peer_copies();
    JobSpec job;
    job.argv = {"sleep", "1"};
    job.stage_files = {"/gpfs/dataset"};
    std::vector<JobSpec> batch;
    batch.push_back(std::move(job));
    out = co_await jets.run_batch(std::move(batch));
  }(jets, copies, report));
  bed.engine.run();
  EXPECT_EQ(copies, kNodes);
  EXPECT_EQ(report.completed, 1u);
  const Service& svc = jets.service();
  EXPECT_EQ(svc.stage_pushes() + svc.stage_peer_copies(), kNodes);
  EXPECT_EQ(svc.stage_warm_hits(), 1u);
  for (os::NodeId n = 0; n < kNodes; ++n) {
    EXPECT_TRUE(bed.machine.node(n).local_fs().exists("/gpfs/dataset")) << n;
  }
}

TEST(DataChannel, StagedBinarySpeedsUpSubsequentTasks) {
  // Stage a fat program over the data channel mid-allocation; exec cost
  // drops from GPFS reads to page-cache hits.
  auto batch_time = [](bool stage_first) {
    EdgeBed bed(4);
    bed.machine.shared_fs().put("fat_app", 60'000'000);
    bed.apps.install("fat_app", [](os::Env&) -> sim::Task<void> { co_return; });
    StandaloneOptions opts;
    opts.worker.task_overhead = sim::milliseconds(2);
    StandaloneJets jets(bed.machine, bed.apps, opts);
    jets.start(bed.nodes(4));
    double makespan = 0;
    bed.engine.spawn("t", [](StandaloneJets& jets, bool stage_first,
                             double& out) -> sim::Task<void> {
      co_await jets.wait_workers();
      if (stage_first) co_await jets.service().stage_to_workers("fat_app");
      std::vector<JobSpec> jobs(16);
      for (auto& j : jobs) j.argv = {"fat_app"};
      BatchReport r = co_await jets.run_batch(std::move(jobs));
      EXPECT_EQ(r.completed, 16u);
      out = r.makespan_seconds();
    }(jets, stage_first, makespan));
    bed.engine.run();
    return makespan;
  };
  EXPECT_LT(batch_time(true), batch_time(false));
}

TEST(Watchdog, HungTaskIsKilledAndSlotRecovered) {
  EdgeBed bed(2);
  bed.apps.install("hang", [](os::Env&) -> sim::Task<void> {
    co_await sim::delay(sim::seconds(100'000));
  });
  StandaloneOptions opts;
  opts.worker.task_overhead = sim::milliseconds(2);
  opts.worker.task_watchdog = sim::seconds(5);
  opts.service.retry.max_attempts = 1;
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(bed.nodes(2));
  BatchReport report;
  bed.engine.spawn("t", [](StandaloneJets& jets, BatchReport& out) -> sim::Task<void> {
    std::vector<JobSpec> jobs;
    JobSpec hang;
    hang.argv = {"hang"};
    jobs.push_back(hang);
    JobSpec ok;
    ok.argv = {"noop"};
    jobs.push_back(ok);
    out = co_await jets.run_batch(std::move(jobs));
  }(jets, report));
  bed.engine.run();
  // The hung job failed at the watchdog (exit 124 -> attempt failed, no
  // retries left); the other job and the worker slot survived.
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_LT(bed.engine.now(), sim::seconds(60));
  EXPECT_EQ(jets.service().ready_workers(), 2u);
}

TEST(Watchdog, FastTasksAreUntouched) {
  EdgeBed bed(2);
  StandaloneOptions opts;
  opts.worker.task_overhead = sim::milliseconds(2);
  opts.worker.task_watchdog = sim::seconds(30);
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(bed.nodes(2));
  BatchReport report;
  bed.engine.spawn("t", [](StandaloneJets& jets, BatchReport& out) -> sim::Task<void> {
    std::vector<JobSpec> jobs(8);
    for (auto& j : jobs) j.argv = {"sleep", "1"};
    out = co_await jets.run_batch(std::move(jobs));
  }(jets, report));
  bed.engine.run();
  EXPECT_EQ(report.completed, 8u);
  for (const auto& rec : report.records) EXPECT_EQ(rec.attempts, 1);
}

}  // namespace
}  // namespace jets::core
