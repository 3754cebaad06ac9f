// Integration tests for the JETS service, workers, stand-alone tool, and
// fault tolerance — the paper's §5 feature list exercised end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "apps/synthetic.hh"
#include "core/chaos.hh"
#include "core/service.hh"
#include "core/standalone.hh"
#include "testutil.hh"

namespace jets::core {
namespace {

using test::mpi_job;
using test::seq_job;

/// A bed with synthetic apps installed and binaries on GPFS.
struct JetsBed : test::ServiceBed {
  explicit JetsBed(os::MachineSpec spec)
      : ServiceBed(std::move(spec), {{"noop", 1'000'000},
                                     {"sleep", 1'000'000},
                                     {"mpi_sleep", 1'000'000},
                                     {"mpi_sleep_write", 1'000'000},
                                     {"pingpong", 1'000'000}}) {}
};

TEST(Standalone, SequentialBatchCompletes) {
  JetsBed bed(os::Machine::breadboard(4));
  StandaloneJets jets(bed.machine, bed.apps, bed.fast_options());
  jets.start(JetsBed::nodes(4));
  std::vector<JobSpec> jobs(16, seq_job({"sleep", "0.5"}));
  BatchReport r = bed.run(jets, jobs);
  EXPECT_EQ(r.completed, 16u);
  EXPECT_EQ(r.failed, 0u);
  for (const auto& rec : r.records) {
    EXPECT_EQ(rec.status, JobStatus::kDone);
    EXPECT_GE(rec.wall_seconds(), 0.5);
    EXPECT_EQ(rec.attempts, 1);
  }
}

TEST(Standalone, JobsRunConcurrentlyAcrossWorkers) {
  JetsBed bed(os::Machine::breadboard(8));
  StandaloneJets jets(bed.machine, bed.apps, bed.fast_options());
  jets.start(JetsBed::nodes(8));
  // 8 one-second jobs on 8 workers should take ~1 s, not ~8 s.
  BatchReport r = bed.run(jets, std::vector<JobSpec>(8, seq_job({"sleep", "1"})));
  EXPECT_EQ(r.completed, 8u);
  EXPECT_LT(r.makespan_seconds(), 2.0);
  EXPECT_GT(r.utilization(), 0.5);
}

TEST(Standalone, MpiJobAggregatesWorkers) {
  JetsBed bed(os::Machine::breadboard(8));
  StandaloneJets jets(bed.machine, bed.apps, bed.fast_options());
  jets.start(JetsBed::nodes(8));
  BatchReport r = bed.run(jets, {mpi_job(4, {"mpi_sleep", "1"})});
  EXPECT_EQ(r.completed, 1u);
  EXPECT_GE(r.records[0].wall_seconds(), 1.0);
}

TEST(Standalone, MixedSizesFromPaperInputFile) {
  JetsBed bed(os::Machine::breadboard(10));
  StandaloneJets jets(bed.machine, bed.apps, bed.fast_options());
  jets.start(JetsBed::nodes(10));
  // The §5.1 example, with our synthetic app standing in for namd2.sh.
  BatchReport r;
  bed.engine.spawn("batch", [](StandaloneJets& jets, BatchReport& out) -> sim::Task<void> {
    out = co_await jets.run_input(
        "MPI: 4 mpi_sleep 1\n"
        "MPI: 8 mpi_sleep 1\n"
        "MPI: 6 mpi_sleep 1\n");
  }(jets, r));
  bed.engine.run();
  EXPECT_EQ(r.completed, 3u);
  EXPECT_EQ(r.failed, 0u);
}

TEST(Standalone, PpnPacksMultipleRanksPerWorker) {
  JetsBed bed(os::Machine::breadboard(2));
  StandaloneJets jets(bed.machine, bed.apps, bed.fast_options());
  jets.start(JetsBed::nodes(2));
  // 8 ranks at ppn=4 need only 2 workers.
  BatchReport r = bed.run(jets, {mpi_job(8, {"mpi_sleep", "1"}, /*ppn=*/4)});
  EXPECT_EQ(r.completed, 1u);
}

TEST(Standalone, FifoHeadOfLineBlocksUntilEnoughWorkers) {
  JetsBed bed(os::Machine::breadboard(4));
  StandaloneJets jets(bed.machine, bed.apps, bed.fast_options());
  jets.start(JetsBed::nodes(2));  // only 2 workers
  // A 4-proc job can never run on 2 workers; with FIFO the queue stalls —
  // but the small job behind it must not starve the batch forever, so we
  // use a timeout on the big job to let the batch settle.
  JobSpec big = mpi_job(4, {"mpi_sleep", "1"});
  big.timeout = sim::seconds(30);
  JobSpec small = seq_job({"noop"});
  BatchReport r = bed.run(jets, {big, small});
  const auto& bigrec = r.records[0];
  const auto& smallrec = r.records[1];
  EXPECT_EQ(bigrec.status, JobStatus::kFailed);  // never placeable
  EXPECT_EQ(smallrec.status, JobStatus::kDone);
  // FIFO: the small job only ran after the big one failed out of the queue.
  EXPECT_GE(smallrec.started_at, sim::seconds(30));
}

TEST(Standalone, BackfillLetsSmallJobsPassBlockedHead) {
  JetsBed bed(os::Machine::breadboard(4));
  StandaloneOptions opts;
  opts.worker.task_overhead = sim::milliseconds(2);
  opts.service.policy = SchedPolicy::kPriorityBackfill;
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(JetsBed::nodes(2));
  JobSpec big = mpi_job(4, {"mpi_sleep", "1"});  // never fits 2 workers
  big.timeout = sim::seconds(30);
  JobSpec small = seq_job({"noop"});
  BatchReport r = bed.run(jets, {big, small});
  EXPECT_EQ(r.records[1].status, JobStatus::kDone);
  // Backfill: the small job ran long before the big job's timeout.
  EXPECT_LT(r.records[1].finished_at, sim::seconds(5));
}

TEST(Standalone, WorkerDeathRetriesSequentialTask) {
  JetsBed bed(os::Machine::breadboard(3));
  StandaloneJets jets(bed.machine, bed.apps, bed.fast_options());
  jets.start(JetsBed::nodes(3));
  std::vector<JobSpec> jobs(3, seq_job({"sleep", "10"}));
  // Kill one worker 2 s in: its task must be retried on another worker.
  bed.engine.call_at(sim::seconds(2),
                     [&] { bed.machine.kill(jets.worker_pids()[0]); });
  BatchReport r = bed.run(jets, jobs);
  EXPECT_EQ(r.completed, 3u);
  EXPECT_EQ(r.failed, 0u);
  int total_attempts = 0;
  for (const auto& rec : r.records) total_attempts += rec.attempts;
  EXPECT_EQ(total_attempts, 4);  // exactly one retry
}

TEST(Standalone, WorkerDeathDuringMpiJobRetriesWholeJob) {
  JetsBed bed(os::Machine::breadboard(6));
  StandaloneJets jets(bed.machine, bed.apps, bed.fast_options());
  jets.start(JetsBed::nodes(6));
  std::vector<JobSpec> jobs{mpi_job(4, {"mpi_sleep", "10"})};
  bed.engine.call_at(sim::seconds(3),
                     [&] { bed.machine.kill(jets.worker_pids()[1]); });
  BatchReport r = bed.run(jets, jobs);
  EXPECT_EQ(r.completed, 1u);
  EXPECT_EQ(r.records[0].attempts, 2);
  // 5 surviving workers still fit the 4-proc job.
  EXPECT_GE(r.records[0].wall_seconds(), 10.0);
}

TEST(Standalone, ExhaustedRetriesFailTheJob) {
  JetsBed bed(os::Machine::breadboard(2));
  bed.apps.install("always_fails", [](os::Env&) -> sim::Task<void> {
    throw std::runtime_error("bad app");
  });
  StandaloneOptions opts;
  opts.service.retry.max_attempts = 2;
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(JetsBed::nodes(2));
  BatchReport r = bed.run(jets, {seq_job({"always_fails"})});
  // Every attempt failed in the app itself, so the retry engine quarantines
  // the job as poison rather than plain-failing it.
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.quarantined, 1u);
  EXPECT_EQ(r.records[0].status, JobStatus::kQuarantined);
  EXPECT_EQ(r.records[0].attempts, 2);
  EXPECT_EQ(r.records[0].last_reason, FailureReason::kAppExit);
  EXPECT_EQ(r.records[0].app_failures, 2);
}

TEST(Standalone, TimeoutAbortsHangingJob) {
  JetsBed bed(os::Machine::breadboard(2));
  StandaloneOptions opts;
  opts.service.retry.max_attempts = 1;
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(JetsBed::nodes(2));
  JobSpec hang = seq_job({"sleep", "100000"});
  hang.timeout = sim::seconds(5);
  BatchReport r = bed.run(jets, {hang});
  EXPECT_EQ(r.failed, 1u);
  EXPECT_LT(bed.engine.now(), sim::seconds(60));
}

TEST(Standalone, FaultInjectorDrainsWorkersButServiceSurvives) {
  // The Fig 10 scenario in miniature: 8 workers, a fault every 2 s, an
  // oversized batch of quick tasks; JETS keeps using surviving workers.
  JetsBed bed(os::Machine::breadboard(8));
  StandaloneOptions opts = bed.fast_options();
  opts.service.retry.max_attempts = 10;
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(JetsBed::nodes(8));
  ChaosEngine chaos(bed.machine, sim::Rng(99));
  chaos.set_pilots(jets.worker_pids());
  chaos.add_periodic(FaultKind::kKillPilot, bed.engine.now() + sim::seconds(2),
                     sim::seconds(2), jets.worker_pids().size());
  chaos.start();
  std::vector<JobSpec> jobs(40, seq_job({"sleep", "0.5"}));
  BatchReport r = bed.run(jets, jobs);
  // All workers eventually die (8 kills x 2 s = 16 s; batch of 40 x 0.5 s
  // over dwindling workers finishes first or mostly finishes).
  EXPECT_EQ(chaos.counters().pilots_killed, 8u);
  EXPECT_GT(r.completed, 30u);  // the vast majority completed despite chaos
}

TEST(Standalone, StagingSpeedsUpBatch) {
  // §6.1.4: store the app binary in node-local storage -> faster startups.
  // The benefit shows at scale, where many nodes hammer GPFS concurrently.
  auto run_once = [](bool stage) {
    JetsBed bed(os::Machine::surveyor(64));
    bed.machine.shared_fs().put("mpi_sleep", 60'000'000);  // NAMD-sized image
    StandaloneOptions opts;
    opts.worker.task_overhead = sim::milliseconds(50);
    if (stage) {
      opts.worker.stage_files = {pmi::kProxyBinary, "mpi_sleep"};
    }
    StandaloneJets jets(bed.machine, bed.apps, opts);
    jets.start(JetsBed::nodes(64));
    std::vector<JobSpec> jobs(64, mpi_job(4, {"mpi_sleep", "1"}));
    BatchReport r = bed.run(jets, jobs);
    EXPECT_EQ(r.completed, 64u);
    return r.makespan_seconds();
  };
  const double unstaged = run_once(false);
  const double staged = run_once(true);
  EXPECT_LT(staged, unstaged * 0.8);
}

TEST(Standalone, NetworkAwareGroupingPicksContiguousNodes) {
  JetsBed bed(os::Machine::breadboard(16));
  StandaloneOptions opts = bed.fast_options();
  opts.service.network_aware_grouping = true;
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(JetsBed::nodes(16));
  BatchReport r = bed.run(jets, {mpi_job(4, {"mpi_sleep", "0.5"})});
  EXPECT_EQ(r.completed, 1u);
}

TEST(Standalone, NetworkAwareClaimMatchesReferenceWindow) {
  // Equivalence with the pre-index implementation of claim_workers: the
  // worker set claimed for an MPI job must be the *first* minimum-node-span
  // window of the node-sorted ready pool. The reference window is computed
  // here, independently, from the actual ready set at placement time.
  JetsBed bed(os::Machine::breadboard(16));
  StandaloneOptions opts = bed.fast_options();
  opts.service.network_aware_grouping = true;
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(JetsBed::nodes(16));
  std::vector<net::NodeId> mpi_nodes;
  std::vector<net::NodeId> expected;
  bed.engine.spawn("driver", [](StandaloneJets& jets,
                                std::vector<net::NodeId>& mpi_nodes,
                                std::vector<net::NodeId>& expected)
                                 -> sim::Task<void> {
    co_await jets.wait_workers();
    Service& svc = jets.service();
    // Pin down an irregular ready set by parking long jobs on 10 workers.
    std::vector<JobId> blockers;
    for (int i = 0; i < 10; ++i) {
      blockers.push_back(svc.submit(seq_job({"sleep", "100"})));
    }
    co_await sim::delay(sim::seconds(2));  // all blockers are placed by now
    std::set<net::NodeId> blocked;
    for (JobId id : blockers) {
      for (net::NodeId n : svc.record(id).nodes) blocked.insert(n);
    }
    std::vector<net::NodeId> ready;
    for (net::NodeId n = 0; n < 16; ++n) {
      if (!blocked.contains(n)) ready.push_back(n);
    }
    EXPECT_EQ(ready.size(), 6u);
    // Reference: node-sorted pool (one worker per node, already sorted),
    // slide a width-4 window, `<` keeps the earliest minimal span.
    std::size_t best = 0;
    auto best_span = std::numeric_limits<net::NodeId>::max();
    for (std::size_t i = 0; i + 4 <= ready.size(); ++i) {
      const net::NodeId span = ready[i + 3] - ready[i];
      if (span < best_span) {
        best_span = span;
        best = i;
      }
    }
    expected.assign(ready.begin() + static_cast<std::ptrdiff_t>(best),
                    ready.begin() + static_cast<std::ptrdiff_t>(best + 4));
    const JobId mpi = svc.submit(mpi_job(4, {"mpi_sleep", "0.5"}));
    co_await svc.wait_job(mpi);
    mpi_nodes = svc.record(mpi).nodes;
  }(jets, mpi_nodes, expected));
  bed.engine.run();
  EXPECT_EQ(expected.size(), 4u);
  EXPECT_EQ(mpi_nodes, expected);
  EXPECT_TRUE(jets.service().ready_pool_consistent());
}

TEST(Standalone, PriorityBackfillPicksPriorityThenFifoOrder) {
  // Equivalence with the pre-index choose_job: the bucket-indexed queue
  // must pick exactly like the old per-kick stable sort — priority
  // descending, submission order within a priority.
  JetsBed bed(os::Machine::breadboard(1));
  StandaloneOptions opts = bed.fast_options();
  opts.service.policy = SchedPolicy::kPriorityBackfill;
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(JetsBed::nodes(1));
  const std::vector<int> prios = {1, 3, 0, 3, 2, 1, 0, 2};
  std::vector<JobSpec> jobs;
  for (int p : prios) {
    JobSpec s = seq_job({"sleep", "0.2"});
    s.priority = p;
    jobs.push_back(std::move(s));
  }
  BatchReport r = bed.run(jets, jobs);
  EXPECT_EQ(r.completed, 8u);
  // Observed start order on the single worker.
  std::vector<std::size_t> by_start(r.records.size());
  std::iota(by_start.begin(), by_start.end(), 0u);
  std::sort(by_start.begin(), by_start.end(), [&](std::size_t a, std::size_t b) {
    return r.records[a].started_at < r.records[b].started_at;
  });
  // Reference order: the seed implementation's stable sort.
  std::vector<std::size_t> reference(r.records.size());
  std::iota(reference.begin(), reference.end(), 0u);
  std::stable_sort(reference.begin(), reference.end(),
                   [&](std::size_t a, std::size_t b) {
                     return prios[a] > prios[b];
                   });
  EXPECT_EQ(by_start, reference);
}

TEST(Standalone, DeadlineMidPlacementFailsJobAndFreesWorker) {
  // The deadline fires while the run message is still being serialized
  // through the dispatcher: the job must settle at the deadline (not hang
  // in kRunning waiting for a worker that never heard of the task), and
  // the claimed worker must come back to the ready pool.
  JetsBed bed(os::Machine::breadboard(1));
  StandaloneOptions opts;
  opts.service.dispatch_overhead = sim::seconds(10);
  opts.service.retry.max_attempts = 3;
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(JetsBed::nodes(1));
  JobSpec doomed = seq_job({"sleep", "1"});
  doomed.timeout = sim::seconds(5);  // expires mid-dispatch
  BatchReport r = bed.run(jets, {doomed});
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.records[0].status, JobStatus::kFailed);
  // Settled at the deadline, with no retry (the deadline is final).
  EXPECT_EQ(r.records[0].finished_at, sim::seconds(5));
  // The claimed worker was released, not leaked as busy-forever.
  EXPECT_TRUE(jets.service().ready_pool_consistent());
  EXPECT_EQ(jets.service().ready_workers(), 1u);
  // And it still does useful work afterwards.
  BatchReport r2 = bed.run(jets, {seq_job({"sleep", "0.5"})});
  EXPECT_EQ(r2.completed, 1u);
}

TEST(Standalone, MaxAttemptsExhaustedByWorkerDeaths) {
  // Every attempt lands on a worker that dies under it: the job burns
  // through max_attempts and is declared failed — it must not requeue
  // forever on an allocation that keeps eating it.
  JetsBed bed(os::Machine::breadboard(2));
  StandaloneOptions opts = bed.fast_options();
  opts.service.retry.max_attempts = 2;
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(JetsBed::nodes(2));
  bed.engine.call_at(sim::seconds(1),
                     [&] { bed.machine.kill(jets.worker_pids()[0]); });
  bed.engine.call_at(sim::seconds(3),
                     [&] { bed.machine.kill(jets.worker_pids()[1]); });
  BatchReport r = bed.run(jets, {seq_job({"sleep", "100"})});
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.records[0].status, JobStatus::kFailed);
  EXPECT_EQ(r.records[0].attempts, 2);
  EXPECT_EQ(jets.service().connected_workers(), 0u);
}

TEST(Standalone, WaitJobOnSettledOrUnknownJobReturnsImmediately) {
  JetsBed bed(os::Machine::breadboard(1));
  StandaloneJets jets(bed.machine, bed.apps, bed.fast_options());
  jets.start(JetsBed::nodes(1));
  BatchReport r = bed.run(jets, {seq_job({"sleep", "0.5"})});
  ASSERT_EQ(r.completed, 1u);
  const JobId done_id = r.records[0].id;
  const sim::Time settled_at = bed.engine.now();
  // Waiting on an already-settled job — and on an id that was never
  // submitted — completes without advancing time.
  bool waited = false;
  bed.engine.spawn("late-waiter", [](Service& svc, JobId id,
                                     bool& waited) -> sim::Task<void> {
    co_await svc.wait_job(id);
    co_await svc.wait_job(static_cast<JobId>(999'999));
    waited = true;
  }(jets.service(), done_id, waited));
  bed.engine.run();
  EXPECT_TRUE(waited);
  EXPECT_EQ(bed.engine.now(), settled_at);
}

TEST(Standalone, SubmitRejectsSpecsWithoutAValidShape) {
  JetsBed bed(os::Machine::breadboard(2));
  StandaloneJets jets(bed.machine, bed.apps, bed.fast_options());
  jets.start(JetsBed::nodes(2));
  Service& svc = jets.service();
  // ppn 0 used to divide by zero in workers_needed(); negative values gave
  // nonsense widths (nprocs 4 at ppn -3 needed 0 workers).
  for (const auto& [nprocs, ppn] : {std::pair{4, 0}, std::pair{4, -3},
                                    std::pair{0, 1}, std::pair{-2, 2}}) {
    EXPECT_THROW(svc.submit(mpi_job(nprocs, {"mpi_sleep", "1"}, ppn)),
                 std::invalid_argument)
        << "nprocs=" << nprocs << " ppn=" << ppn;
  }
  EXPECT_EQ(svc.job_table_size(), 0u);
  EXPECT_EQ(svc.pending_jobs(), 0u);
  // The width no longer overflows near INT_MAX.
  const int max = std::numeric_limits<int>::max();
  EXPECT_EQ(mpi_job(max, {"mpi_sleep"}, max).workers_needed(), 1);
  EXPECT_EQ(mpi_job(max, {"mpi_sleep"}, 2).workers_needed(), max / 2 + 1);
}

TEST(Standalone, UtilizationHighForOneSecondTasks) {
  // The headline Fig 7 claim: ~90 % utilization for single-second MPI
  // tasks through JETS.
  JetsBed bed(os::Machine::breadboard(16));
  StandaloneOptions opts;
  opts.worker.task_overhead = sim::milliseconds(5);
  opts.worker.stage_files = {pmi::kProxyBinary, "mpi_sleep"};
  StandaloneJets jets(bed.machine, bed.apps, opts);
  jets.start(JetsBed::nodes(16));
  std::vector<JobSpec> jobs(4 * 16 / 4, mpi_job(4, {"mpi_sleep", "1"}));
  BatchReport r = bed.run(jets, jobs);
  EXPECT_EQ(r.completed, jobs.size());
  EXPECT_GT(r.utilization(), 0.75);
}

}  // namespace
}  // namespace jets::core
