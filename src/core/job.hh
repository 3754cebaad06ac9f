// JETS job specifications and the stand-alone input-file format.
//
// The stand-alone `jets` tool consumes a simple text file (paper §5.1):
//
//   MPI: 4 namd2.sh input-1.pdb output-1.log
//   MPI: 8 namd2.sh input-2.pdb output-2.log
//   MPI[ppn=4]: 16 namd2.sh input-3.pdb output-3.log
//   my_serial_tool --flag in.dat
//
// `MPI: n cmd...` runs cmd as an n-process MPI job (the optional
// `[ppn=k]` packs k ranks per worker); bare lines run as single-process
// (Falkon-style) tasks. Hostnames are never specified — JETS binds jobs
// to whichever workers are ready at run time.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/fabric.hh"
#include "sim/time.hh"

namespace jets::core {

using JobId = std::uint64_t;

enum class JobKind { kSequential, kMpi };

/// Why a settled attempt (or a job that never got an attempt) failed. The
/// taxonomy splits *application* failures — the job's own code exited
/// nonzero or hung past the task watchdog — from *infrastructure* failures
/// the job is innocent of, so the retry engine can charge them to separate
/// budgets (see RetryPolicy).
enum class FailureReason : std::uint8_t {
  kNone = 0,          // attempt succeeded
  kAppExit,           // the application exited nonzero (or tripped the
                      // worker-side task watchdog)
  kWorkerLost,        // the worker's connection died (EOF) under the job
  kLivenessEvicted,   // the service's liveness deadline disregarded the
                      // worker (hung pilot, stalled network)
  kGangPartnerLost,   // an MPI gang lost one of its workers/proxies, so
                      // every partner's work was wasted
  kLaunchTimeout,     // the gang never finished wiring up (proxy dial-back
                      // + PMI init) within the launch-phase deadline
  kJobDeadline,       // the job-level timeout expired
  kServiceAbort,      // the service gave up: the machine shrank below the
                      // job's width, or the job was aborted administratively
  kServiceRestart,    // the service itself crashed and was restored from a
                      // checkpoint; the attempt died with it. Never charged
                      // to any retry budget — the job is blameless and the
                      // infrastructure event is the service's own.
  kWalltimeDrain,     // the worker's pilot block hit (or was drained ahead
                      // of) its walltime horizon, or was preempted by the
                      // batch system; the job was requeued intact. Like
                      // kServiceRestart, never charged to any budget and
                      // never a blacklist strike — the allocation boundary
                      // is the site's business, not the job's or node's.
};
inline constexpr std::size_t kFailureReasonCount = 10;

const char* to_string(FailureReason reason);

/// Infrastructure-class failures: not the application's fault, so they can
/// be exempted from the app-failure attempt budget (RetryPolicy).
constexpr bool is_infra_failure(FailureReason r) {
  return r == FailureReason::kWorkerLost ||
         r == FailureReason::kLivenessEvicted ||
         r == FailureReason::kGangPartnerLost ||
         r == FailureReason::kLaunchTimeout ||
         r == FailureReason::kServiceRestart ||
         r == FailureReason::kWalltimeDrain;
}

/// Retry discipline applied when an attempt fails. The service holds the
/// default policy (Service::Config::retry); a JobSpec may override it
/// wholesale. Requeues are *delayed*: each failed attempt schedules an
/// exponential-backoff timer (base * factor^(failures-1), capped at `max`,
/// stretched by up to `jitter` drawn from the service's seeded rng), so a
/// poison job cannot hot-loop at the head of the queue and same-seed runs
/// reproduce identical backoff schedules.
struct RetryPolicy {
  /// Attempt budget. Application failures always consume it; infra-class
  /// failures consume it too unless `infra_exempt` is set.
  int max_attempts = 3;
  /// When true, infra-class failures (see is_infra_failure) do not count
  /// toward max_attempts; they are bounded by max_infra_failures instead.
  bool infra_exempt = false;
  /// Hard cap on infra-class failures per job — a backstop against a job
  /// that keeps landing on dying hardware.
  int max_infra_failures = 64;
  /// First-retry delay; 0 disables backoff (requeue happens immediately,
  /// still through the timer path for deterministic ordering).
  sim::Duration backoff_base = sim::milliseconds(250);
  double backoff_factor = 2.0;
  sim::Duration backoff_max = sim::seconds(30);
  /// Each delay is stretched by a uniform draw in [0, jitter) of itself,
  /// from the service's rng (seeded below) — deterministic, but decorrelates
  /// retry stampedes after a mass eviction.
  double backoff_jitter = 0.25;
  /// Seed for the service's backoff-jitter rng stream.
  std::uint64_t jitter_seed = 2011;

  friend bool operator==(const RetryPolicy&, const RetryPolicy&) = default;
};

/// One attempt of one job, as recorded in JobRecord::history.
struct AttemptRecord {
  int attempt = 0;              // 1-based
  sim::Time started_at = -1;
  sim::Time ended_at = -1;      // -1 while in flight
  int exit_status = 0;
  FailureReason reason = FailureReason::kNone;
  /// Backoff delay scheduled after this attempt failed (0 if none — the
  /// attempt succeeded or the job settled for good).
  sim::Duration backoff = 0;

  friend bool operator==(const AttemptRecord&, const AttemptRecord&) = default;
};

struct JobSpec {
  JobKind kind = JobKind::kSequential;
  /// Total MPI process count (1 for sequential jobs).
  int nprocs = 1;
  /// MPI ranks per worker/proxy ("PPN"); workers_needed() derives from it.
  int ppn = 1;
  std::vector<std::string> argv;
  std::map<std::string, std::string> vars;
  /// 0 = no timeout; otherwise the service aborts the job after this long.
  sim::Duration timeout = 0;
  /// Scheduling priority for the priority/backfill policy (higher first);
  /// ignored by the paper's default FIFO scheduler.
  int priority = 0;
  /// Per-job retry policy; unset means the service default applies.
  std::optional<RetryPolicy> retry;
  /// Input files (shared-filesystem paths) this job needs on each of its
  /// workers' nodes before it runs. The service stages them through the
  /// per-node content-addressed cache: each distinct blob crosses the
  /// fabric to a node at most once, later jobs hit warm cache (§5's
  /// staging feature, generalized from worker start-up to per-job data).
  std::vector<std::string> stage_files;

  /// Caller's estimate of one attempt's runtime; 0 = unknown. Under
  /// elastic allocations the service refuses to place a job on a worker
  /// whose pilot block expires before now + expected_runtime, so work is
  /// never started that the walltime is guaranteed to kill.
  sim::Duration expected_runtime = 0;

  /// nprocs >= 1 and ppn >= 1: what workers_needed() assumes. The job-file
  /// parser enforces it per line; Service::submit and the snapshot reader
  /// check it here (a zero ppn would divide by zero).
  bool shape_valid() const { return nprocs >= 1 && ppn >= 1; }

  /// Number of workers (pilot slots) this job occupies while running.
  /// Requires shape_valid(); cannot overflow near INT_MAX.
  int workers_needed() const {
    if (kind == JobKind::kSequential) return 1;
    return (nprocs - 1) / ppn + 1;
  }

  friend bool operator==(const JobSpec&, const JobSpec&) = default;
};

/// Final state of one job as tracked by the service. kQuarantined is the
/// poison-job terminal state: the job's *own* failures exhausted the
/// app-failure budget, so resubmitting it as-is would burn more workers.
enum class JobStatus { kPending, kRunning, kDone, kFailed, kQuarantined };

constexpr bool job_settled(JobStatus s) {
  return s == JobStatus::kDone || s == JobStatus::kFailed ||
         s == JobStatus::kQuarantined;
}

struct JobRecord {
  JobId id = 0;
  JobSpec spec;
  JobStatus status = JobStatus::kPending;
  int attempts = 0;
  /// Attempt-budget accounting, per the taxonomy split.
  int app_failures = 0;
  int infra_failures = 0;
  /// Why the most recent attempt failed — or, once settled, why the job
  /// failed for good (kNone for kDone).
  FailureReason last_reason = FailureReason::kNone;
  /// Every attempt, in order, with its classified failure and the backoff
  /// delay the retry engine scheduled after it.
  std::vector<AttemptRecord> history;
  /// Nodes hosting the last attempt's workers (for locality analyses).
  std::vector<net::NodeId> nodes;
  sim::Time submitted_at = 0;
  sim::Time started_at = -1;   // last attempt's start
  sim::Time finished_at = -1;
  /// Wall time of the successful attempt, seconds.
  double wall_seconds() const {
    if (finished_at < 0 || started_at < 0) return 0.0;
    return sim::to_seconds(finished_at - started_at);
  }

  friend bool operator==(const JobRecord&, const JobRecord&) = default;
};

/// FNV-1a digest of one record's observable schedule: status, attempt and
/// failure accounting, the placement's nodes, and every timestamp. Golden
/// state hashes for determinism checks — two same-seed runs must produce
/// identical digests job for job (tests/scale_test.cc folds them into one
/// run hash).
std::uint64_t record_digest(const JobRecord& rec);

/// Parses the stand-alone input format. Blank lines and '#' comments are
/// skipped. The process count and ppn must be whole decimal numbers, as on
/// the wire (net/number.hh). Throws std::invalid_argument on malformed
/// lines.
std::vector<JobSpec> parse_job_list(const std::string& text, int default_ppn = 1);

}  // namespace jets::core
