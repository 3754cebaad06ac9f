// Fault-matrix tests for the chaos layer (core/chaos.hh): every fault
// class crossed with sequential and MPI workloads, plus targeted tests for
// the heartbeat/liveness machinery. The invariants throughout:
//
//   * every submitted job settles (completed + failed == submitted);
//   * the service's worker bookkeeping stays consistent;
//   * actor churn balances — a chaos run must not leak task actors;
//   * the whole run is deterministic: same seed, same end state.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/synthetic.hh"
#include "core/chaos.hh"
#include "core/standalone.hh"
#include "testutil.hh"
#include "trace_log.hh"

namespace jets::core {
namespace {

using test::mpi_job;
using test::seq_job;

struct ChaosBed : test::ServiceBed {
  explicit ChaosBed(os::MachineSpec spec)
      : ServiceBed(std::move(spec),
                   {{"sleep", 16'384}, {"mpi_sleep", 1'500'000}}) {}
};

// --- The fault matrix --------------------------------------------------------

struct MatrixOutcome {
  BatchReport report;
  std::size_t submitted = 0;
  std::size_t evicted = 0;
  std::size_t reenlisted = 0;
  bool ready_pool_ok = false;
  std::size_t task_spawned = 0;
  std::size_t task_ended = 0;
  std::size_t live_at_end = 0;
};

/// Runs a 12-job batch on 8 workers while two faults of `kind` fire, and
/// collects settlement + churn accounting.
MatrixOutcome run_matrix(FaultKind kind, bool mpi, std::uint64_t seed = 7) {
  constexpr std::size_t kNodes = 8;
  ChaosBed bed(os::Machine::breadboard(kNodes));
  sim::TraceLog log;
  sim::ScopedObserver attach(bed.engine, log);

  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  options.worker.stage_files = {pmi::kProxyBinary, "sleep", "mpi_sleep"};
  options.service.retry.max_attempts = 10;
  // Liveness: pings twice a second while busy; 2 s of silence evicts.
  options.worker.heartbeat_interval = sim::milliseconds(500);
  options.service.worker_liveness_timeout = sim::seconds(2);
  auto registry = std::make_shared<WorkerHangRegistry>();
  options.worker.hang_registry = registry;
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(ChaosBed::nodes(kNodes));

  // Enough work to keep every worker busy well past both fault times, so
  // faults always land on workers with jobs in flight.
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 40; ++i) {
    jobs.push_back(mpi ? mpi_job(2, {"mpi_sleep", "2"})
                       : seq_job({"sleep", "2"}));
  }

  ChaosEngine chaos(bed.machine, sim::Rng(seed));
  chaos.set_pilots(jets.worker_pids());
  chaos.set_hang_registry(registry);
  // Two faults mid-batch. Hangs are released after 4 s (the permanent-hang
  // case has its own targeted test below); stalls last 4 s; slow nodes
  // run 4x slow until the end.
  Fault f;
  f.kind = kind;
  if (kind == FaultKind::kHangWorker || kind == FaultKind::kSocketStall) {
    f.duration = sim::seconds(4);
  }
  if (kind == FaultKind::kSlowNode) {
    f.exec_scale = 4.0;
    f.compute_scale = 4.0;
  }
  f.at = sim::seconds(3);
  chaos.add(f);
  f.at = sim::seconds(6);
  chaos.add(f);

  MatrixOutcome out;
  out.submitted = jobs.size();
  bed.engine.spawn("driver", [](StandaloneJets& jets, ChaosEngine& chaos,
                                std::vector<JobSpec> jobs,
                                BatchReport& report) -> sim::Task<void> {
    co_await jets.wait_workers();
    chaos.start();
    report = co_await jets.run_batch(std::move(jobs));
  }(jets, chaos, std::move(jobs), out.report));
  bed.engine.run_until(sim::seconds(600));

  EXPECT_LT(bed.engine.now(), sim::seconds(600))
      << "batch did not settle under fault kind " << static_cast<int>(kind);

  out.evicted = jets.service().evicted_workers();
  out.reenlisted = jets.service().reenlisted_workers();
  out.ready_pool_ok = jets.service().ready_pool_consistent();
  for (const auto& ev : log.matching("task:")) {
    if (ev.kind == sim::TraceEvent::Kind::kSpawn) {
      ++out.task_spawned;
    } else {
      ++out.task_ended;
    }
  }
  out.live_at_end = log.live_at_end();
  return out;
}

void expect_settled(const MatrixOutcome& out) {
  EXPECT_EQ(out.report.completed + out.report.failed, out.submitted);
  EXPECT_EQ(out.report.records.size(), out.submitted);
  for (const auto& rec : out.report.records) {
    EXPECT_TRUE(rec.status == JobStatus::kDone ||
                rec.status == JobStatus::kFailed);
  }
  EXPECT_TRUE(out.ready_pool_ok);
  // Every task actor the workers spawned also ended (faults in this matrix
  // are transient, so no task can be frozen forever)...
  EXPECT_EQ(out.task_spawned, out.task_ended);
  // ...and only long-lived infrastructure remains: 8 pilots + their
  // heartbeats and per-connection handlers plus the service actors.
  EXPECT_LT(out.live_at_end, 64u);
}

TEST(ChaosMatrix, KillPilotSequential) {
  MatrixOutcome out = run_matrix(FaultKind::kKillPilot, /*mpi=*/false);
  expect_settled(out);
  EXPECT_EQ(out.report.completed, out.submitted);  // retries absorb kills
}

TEST(ChaosMatrix, KillPilotMpi) {
  MatrixOutcome out = run_matrix(FaultKind::kKillPilot, /*mpi=*/true);
  expect_settled(out);
  EXPECT_EQ(out.report.completed, out.submitted);
}

TEST(ChaosMatrix, SocketCloseSequential) {
  MatrixOutcome out = run_matrix(FaultKind::kSocketClose, /*mpi=*/false);
  expect_settled(out);
  EXPECT_EQ(out.report.completed, out.submitted);
}

TEST(ChaosMatrix, SocketCloseMpi) {
  MatrixOutcome out = run_matrix(FaultKind::kSocketClose, /*mpi=*/true);
  expect_settled(out);
  EXPECT_EQ(out.report.completed, out.submitted);
}

TEST(ChaosMatrix, SocketStallSequential) {
  MatrixOutcome out = run_matrix(FaultKind::kSocketStall, /*mpi=*/false);
  expect_settled(out);
  EXPECT_EQ(out.report.completed, out.submitted);
}

TEST(ChaosMatrix, SocketStallMpi) {
  MatrixOutcome out = run_matrix(FaultKind::kSocketStall, /*mpi=*/true);
  expect_settled(out);
  EXPECT_EQ(out.report.completed, out.submitted);
}

TEST(ChaosMatrix, HangWorkerSequential) {
  MatrixOutcome out = run_matrix(FaultKind::kHangWorker, /*mpi=*/false);
  expect_settled(out);
  EXPECT_EQ(out.report.completed, out.submitted);
  EXPECT_GE(out.evicted, 1u);  // the liveness deadline caught the hang
}

TEST(ChaosMatrix, HangWorkerMpi) {
  MatrixOutcome out = run_matrix(FaultKind::kHangWorker, /*mpi=*/true);
  expect_settled(out);
  EXPECT_EQ(out.report.completed, out.submitted);
  EXPECT_GE(out.evicted, 1u);
}

TEST(ChaosMatrix, SlowNodeSequential) {
  MatrixOutcome out = run_matrix(FaultKind::kSlowNode, /*mpi=*/false);
  expect_settled(out);
  EXPECT_EQ(out.report.completed, out.submitted);
  EXPECT_EQ(out.evicted, 0u);  // slow is not dead: no evictions
}

TEST(ChaosMatrix, SlowNodeMpi) {
  MatrixOutcome out = run_matrix(FaultKind::kSlowNode, /*mpi=*/true);
  expect_settled(out);
  EXPECT_EQ(out.report.completed, out.submitted);
  EXPECT_EQ(out.evicted, 0u);
}

// --- Targeted behaviour ------------------------------------------------------

// The acceptance scenario: a worker hangs mid-task with its socket open.
// Only the heartbeat/liveness machinery can notice; the service must evict
// it and the job must complete on another worker via retry.
TEST(ChaosTargeted, HungWorkerIsEvictedAndJobRetries) {
  ChaosBed bed(os::Machine::breadboard(3));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  options.worker.heartbeat_interval = sim::milliseconds(500);
  options.service.worker_liveness_timeout = sim::seconds(2);
  auto registry = std::make_shared<WorkerHangRegistry>();
  options.worker.hang_registry = registry;
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(ChaosBed::nodes(3));

  std::vector<JobSpec> jobs(3, seq_job({"sleep", "10"}));

  // Hang the node-0 pilot 2 s in — mid-task — forever.
  ChaosEngine chaos(bed.machine, sim::Rng(1));
  chaos.set_hang_registry(registry);
  chaos.add({.at = sim::seconds(2),
             .kind = FaultKind::kHangWorker,
             .node = 0});

  BatchReport report;
  bed.engine.spawn("driver", [](StandaloneJets& jets, ChaosEngine& chaos,
                                std::vector<JobSpec> jobs,
                                BatchReport& out) -> sim::Task<void> {
    co_await jets.wait_workers();
    chaos.start();
    out = co_await jets.run_batch(std::move(jobs));
  }(jets, chaos, std::move(jobs), report));
  bed.engine.run();

  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(chaos.counters().workers_hung, 1u);
  EXPECT_EQ(jets.service().evicted_workers(), 1u);
  EXPECT_EQ(jets.service().reenlisted_workers(), 0u);  // hung forever
  EXPECT_GT(jets.service().heartbeats_received(), 0u);
  // Exactly one job needed a second attempt, and the batch outlived the
  // liveness deadline + retry (10 s first wave + 10 s retried task).
  int retried = 0;
  for (const auto& rec : report.records) {
    retried += rec.attempts > 1 ? 1 : 0;
  }
  EXPECT_EQ(retried, 1);
  EXPECT_GE(sim::to_seconds(bed.engine.now()), 20.0);
}

// A silent worker is not dropped on the floor forever: when its network
// stall drains, its "ready" re-enlists it into the pool.
TEST(ChaosTargeted, StalledWorkerIsEvictedThenReenlisted) {
  ChaosBed bed(os::Machine::breadboard(2));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  options.worker.heartbeat_interval = sim::milliseconds(500);
  options.service.worker_liveness_timeout = sim::seconds(2);
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(ChaosBed::nodes(2));

  std::vector<JobSpec> jobs(4, seq_job({"sleep", "5"}));

  ChaosEngine chaos(bed.machine, sim::Rng(1));
  chaos.add({.at = sim::seconds(1),
             .kind = FaultKind::kSocketStall,
             .node = 0,
             .duration = sim::seconds(8)});

  BatchReport report;
  bed.engine.spawn("driver", [](StandaloneJets& jets, ChaosEngine& chaos,
                                std::vector<JobSpec> jobs,
                                BatchReport& out) -> sim::Task<void> {
    co_await jets.wait_workers();
    chaos.start();
    out = co_await jets.run_batch(std::move(jobs));
  }(jets, chaos, std::move(jobs), report));
  bed.engine.run();

  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(jets.service().evicted_workers(), 1u);
  EXPECT_EQ(jets.service().reenlisted_workers(), 1u);
  EXPECT_TRUE(jets.service().ready_pool_consistent());
}

// Socket RST: the service sees EOF immediately and retries the job, long
// before any liveness deadline would fire.
TEST(ChaosTargeted, SocketCloseRetriesInFlightJob) {
  ChaosBed bed(os::Machine::breadboard(2));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(ChaosBed::nodes(2));

  ChaosEngine chaos(bed.machine, sim::Rng(1));
  chaos.add({.at = sim::seconds(2),
             .kind = FaultKind::kSocketClose,
             .node = 0});

  // One long job; FIFO places it on the first-registered worker (node 0).
  std::vector<JobSpec> jobs(2, seq_job({"sleep", "10"}));
  BatchReport report;
  bed.engine.spawn("driver", [](StandaloneJets& jets, ChaosEngine& chaos,
                                std::vector<JobSpec> jobs,
                                BatchReport& out) -> sim::Task<void> {
    co_await jets.wait_workers();
    chaos.start();
    out = co_await jets.run_batch(std::move(jobs));
  }(jets, chaos, std::move(jobs), report));
  bed.engine.run();

  EXPECT_EQ(report.completed, 2u);
  EXPECT_GE(chaos.counters().connections_reset, 1u);
  int total_attempts = 0;
  for (const auto& rec : report.records) total_attempts += rec.attempts;
  EXPECT_EQ(total_attempts, 3);  // exactly the node-0 job retried
}

// Slow-node faults stretch wall time without breaking anything: a 4x
// compute multiplier makes a 2 s task take >= 8 s.
TEST(ChaosTargeted, SlowNodeStretchesTaskWallTime) {
  ChaosBed bed(os::Machine::breadboard(1));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(ChaosBed::nodes(1));

  ChaosEngine chaos(bed.machine, sim::Rng(1));
  chaos.add({.at = 0,
             .kind = FaultKind::kSlowNode,
             .node = 0,
             .exec_scale = 4.0,
             .compute_scale = 4.0});

  BatchReport report;
  std::vector<JobSpec> jobs(1, seq_job({"sleep", "2"}));
  bed.engine.spawn("driver", [](StandaloneJets& jets, ChaosEngine& chaos,
                                std::vector<JobSpec> jobs,
                                BatchReport& out) -> sim::Task<void> {
    co_await jets.wait_workers();
    chaos.start();
    out = co_await jets.run_batch(std::move(jobs));
  }(jets, chaos, std::move(jobs), report));
  bed.engine.run();

  ASSERT_EQ(report.completed, 1u);
  EXPECT_GE(report.records[0].wall_seconds(), 8.0);
}

// A worker hung while *idle* cannot ping (there is nothing to report) and
// will not answer a run message; the per-assignment liveness deadline must
// still catch it once work is placed on it.
TEST(ChaosTargeted, IdleHangCaughtAfterAssignment) {
  ChaosBed bed(os::Machine::breadboard(2));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  options.worker.heartbeat_interval = sim::milliseconds(500);
  options.service.worker_liveness_timeout = sim::seconds(2);
  auto registry = std::make_shared<WorkerHangRegistry>();
  options.worker.hang_registry = registry;
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(ChaosBed::nodes(2));

  ChaosEngine chaos(bed.machine, sim::Rng(1));
  chaos.set_hang_registry(registry);
  chaos.add({.at = sim::seconds(1),
             .kind = FaultKind::kHangWorker,
             .node = 0});

  BatchReport report;
  std::vector<JobSpec> jobs(2, seq_job({"sleep", "3"}));
  bed.engine.spawn("driver", [](StandaloneJets& jets, ChaosEngine& chaos,
                                std::vector<JobSpec> jobs,
                                BatchReport& out) -> sim::Task<void> {
    co_await jets.wait_workers();
    chaos.start();
    // Submit *after* the hang lands: the worker is frozen while idle and
    // still sitting in the ready pool.
    co_await sim::delay(sim::seconds(2));
    out = co_await jets.run_batch(std::move(jobs));
  }(jets, chaos, std::move(jobs), report));
  bed.engine.run();

  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(jets.service().evicted_workers(), 1u);
}

// Blacklisting: after `blacklist_after` evictions from one node, the
// service refuses that node's workers for good.
TEST(ChaosTargeted, BlacklistedNodeIsNotReenlisted) {
  ChaosBed bed(os::Machine::breadboard(2));
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  options.worker.heartbeat_interval = sim::milliseconds(500);
  options.service.worker_liveness_timeout = sim::seconds(2);
  options.service.blacklist_after = 1;
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(ChaosBed::nodes(2));

  std::vector<JobSpec> jobs(4, seq_job({"sleep", "5"}));

  ChaosEngine chaos(bed.machine, sim::Rng(1));
  chaos.add({.at = sim::seconds(1),
             .kind = FaultKind::kSocketStall,
             .node = 0,
             .duration = sim::seconds(8)});

  BatchReport report;
  bed.engine.spawn("driver", [](StandaloneJets& jets, ChaosEngine& chaos,
                                std::vector<JobSpec> jobs,
                                BatchReport& out) -> sim::Task<void> {
    co_await jets.wait_workers();
    chaos.start();
    out = co_await jets.run_batch(std::move(jobs));
  }(jets, chaos, std::move(jobs), report));
  bed.engine.run();

  EXPECT_EQ(report.completed, 4u);  // the node-1 worker does all the work
  EXPECT_EQ(jets.service().evicted_workers(), 1u);
  EXPECT_EQ(jets.service().reenlisted_workers(), 0u);
  EXPECT_GE(jets.service().blacklist_rejections(), 1u);
  EXPECT_EQ(jets.service().connected_workers(), 1u);
}

// --- Determinism -------------------------------------------------------------

/// End-state fingerprint of a chaos run: per-job (status, attempts,
/// finished_at) plus service counters — byte-equal across same-seed runs.
std::string chaos_fingerprint(std::uint64_t seed) {
  MatrixOutcome out = run_matrix(FaultKind::kHangWorker, /*mpi=*/true, seed);
  std::string fp;
  for (const auto& rec : out.report.records) {
    fp += std::to_string(static_cast<int>(rec.status)) + ":" +
          std::to_string(rec.attempts) + ":" +
          std::to_string(rec.finished_at) + ";";
  }
  fp += "|evicted=" + std::to_string(out.evicted);
  fp += "|reenlisted=" + std::to_string(out.reenlisted);
  return fp;
}

TEST(ChaosDeterminism, SameSeedSameEndState) {
  EXPECT_EQ(chaos_fingerprint(11), chaos_fingerprint(11));
  EXPECT_EQ(chaos_fingerprint(23), chaos_fingerprint(23));
}

}  // namespace
}  // namespace jets::core
