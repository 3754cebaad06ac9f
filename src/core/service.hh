// The central JETS service (dispatcher).
//
// The essential JETS idea (§5): transform an MPI job specification into a
// set of Hydra proxy invocations — by running a background mpiexec with
// launcher=manual — and rapidly push those proxy command lines to ready
// pilot-job workers over persistent sockets. Sequential jobs are pushed
// directly (Falkon-style). The service:
//
//   * keeps a FIFO job queue and a first-come-first-served ready-worker
//     pool (the paper's defaults; §6.1.4);
//   * aggregates independent workers into MPI-capable groups of exactly
//     the size each job needs;
//   * checks mpiexec outcomes and retries failed jobs on fresh workers,
//     automatically disregarding workers that fail or hang (§5 feature 3,
//     Fig 10);
//   * charges a fixed dispatch cost per task sent — the single-scheduler
//     bottleneck that caps launch throughput (Figs 6 and 9).
//
// Failure handling goes beyond the paper's "retries failed jobs" sentence:
// every settled attempt is *classified* (FailureReason in core/job.hh) and
// appended to JobRecord::history, and requeues run through a retry policy
// engine (RetryPolicy) instead of an immediate head-of-line push:
//
//   * retry.max_attempts (default 3) bounds the attempt budget; with
//     retry.infra_exempt, infrastructure failures (lost/evicted workers,
//     gang partners, launch timeouts) are charged to a separate
//     retry.max_infra_failures budget (default 64) instead;
//   * failed attempts requeue after exponential backoff —
//     retry.backoff_base (250ms) * retry.backoff_factor (2.0)^(failures-1),
//     capped at retry.backoff_max (30s), stretched by up to
//     retry.backoff_jitter (0.25) of itself from a deterministic rng seeded
//     with retry.jitter_seed — so a poison job cannot hot-loop and
//     same-seed runs reproduce identical schedules;
//   * a job whose *own* failures exhaust the budget is quarantined
//     (JobStatus::kQuarantined) rather than merely failed;
//   * JobSpec::retry overrides the service-wide policy per job;
//   * mpi_launch_timeout bounds the gang wiring phase (proxy dial-back +
//     PMI init), failing fast with kLaunchTimeout;
//   * a queued job wider than the machine can ever again supply is
//     settled (kServiceAbort) instead of letting wait_all hang;
//   * blacklist_probation paroles blacklisted nodes after a cooldown with
//     their eviction count halved.
//
// Extensions beyond the paper's evaluated system, each behind a Config
// switch and exercised by the ablation benches (paper §7 future work):
// priority+backfill scheduling and network-aware worker grouping.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/job.hh"
#include "core/queues.hh"
#include "core/staging.hh"
#include "core/table.hh"
#include "core/worker.hh"
#include "net/rpc.hh"
#include "net/socket.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "os/machine.hh"
#include "os/program.hh"
#include "pmi/hydra.hh"
#include "sim/random.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace jets::core {

struct Snapshot;    // core/snapshot.hh
class Checkpoint;  // core/snapshot.hh

/// Queue discipline for picking the next job to place.
enum class SchedPolicy {
  kFifo,              // paper default: strict head-of-line
  kPriorityBackfill,  // §7: priority order, skip jobs that don't fit yet
};

class Service {
 public:
  struct Config {
    /// Central scheduler cost per task/proxy message dispatched. This
    /// serializes in the dispatch loop and is the throughput cap of
    /// Figs 6/9 (calibrated in bench/README notes).
    sim::Duration dispatch_overhead = sim::microseconds(120);
    /// Additional serialized cost per *MPI job* placement: forking and
    /// wiring up the background mpiexec on the submit host (§5).
    sim::Duration mpi_job_overhead = sim::milliseconds(5);
    /// Forwarded to each job's MpiexecSpec (see pmi/hydra.hh).
    sim::Duration proxy_setup_cost = sim::microseconds(500);
    /// Default retry policy (attempt budgets + backoff); JobSpec::retry
    /// overrides it per job. See core/job.hh.
    RetryPolicy retry;
    /// Launch-phase deadline forwarded to each MPI job's MpiexecSpec: the
    /// gang must finish wiring (proxy dial-back + PMI init) within this
    /// long or the attempt fails fast with kLaunchTimeout. 0 disables.
    sim::Duration mpi_launch_timeout = 0;
    SchedPolicy policy = SchedPolicy::kFifo;
    /// §7: group MPI jobs onto workers with nearby node ids (torus
    /// locality) instead of first-come-first-served. For a job naming
    /// stage_files, the window holding most of those bytes wins; ties (and
    /// every cold cache) keep the min-span window.
    bool network_aware_grouping = false;
    /// Content-addressed staging of JobSpec::stage_files: each distinct
    /// blob reaches a node at most once (later jobs are satisfied from
    /// warm cache with a zero-byte "staged" ack), and cold copies prefer a
    /// cheap peer node that already holds the digest over a service push.
    /// Off = the naive pre-CAS behavior: every job re-pushes every input
    /// to every one of its nodes (the abl_staging cold baseline).
    bool staging_cache = true;
    /// Liveness deadline for *busy* workers: a worker that has been silent
    /// this long after being handed work is disregarded — removed from the
    /// pools, its job attempt failed so it retries elsewhere (§5 feature 3:
    /// "disregards workers that fail or hang"). Catches hung pilots whose
    /// socket stays open, which EOF detection alone cannot. Pair with
    /// WorkerConfig::heartbeat_interval (< this) so long-running tasks are
    /// not mistaken for hangs. 0 disables.
    sim::Duration worker_liveness_timeout = 0;
    /// After this many evictions from the same node, refuse that node's
    /// workers entirely (registration and re-enlistment) — a crude
    /// bad-node blacklist. 0 disables (evicted workers may re-enlist by
    /// sending "ready" again, e.g. after a stall drains).
    int blacklist_after = 0;
    /// Probation window for blacklisted nodes: after this long banned, a
    /// node may re-enlist with its eviction count halved (so a repeat
    /// offender is re-banned quickly). 0 = the ban is permanent.
    sim::Duration blacklist_probation = 0;
  };

  /// Grace period after a restore-from-snapshot during which checkpointed
  /// workers are carried as "ghosts": they count toward capacity and hold
  /// their slots for heartbeat reconciliation (a surviving pilot that
  /// redials and re-registers reclaims its identity). Ghosts still absent
  /// when the grace expires are dropped and their running jobs requeued
  /// with kServiceRestart.
  static constexpr sim::Duration kRestoreGrace = sim::seconds(10);

  /// Observation hooks for benchmark harnesses.
  struct Hooks {
    std::function<void(const JobRecord&)> on_job_start;
    std::function<void(const JobRecord&)> on_job_finish;
  };

  Service(os::Machine& machine, const os::AppRegistry& apps, os::NodeId host,
          Config config);
  Service(os::Machine& machine, const os::AppRegistry& apps, os::NodeId host);
  /// Recovery constructor: builds a fresh service whose scheduler state is
  /// restored from `snap` (see core/snapshot.hh), moving its job records
  /// into the new table. Call start() afterwards — it rebinds the
  /// *checkpointed* listen address so surviving pilots can redial it.
  /// Throws SnapshotError if the snapshot is malformed.
  Service(os::Machine& machine, const os::AppRegistry& apps, os::NodeId host,
          Config config, Snapshot snap);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Binds the listen port and starts the accept + dispatch actors.
  void start();

  net::Address address() const { return addr_; }
  const Config& config() const { return config_; }
  Hooks& hooks() { return hooks_; }

  /// Enqueues a job; returns its id. Jobs may be submitted at any time,
  /// including while earlier jobs run (dynamic workloads). Throws
  /// std::invalid_argument for an empty argv or a spec that fails
  /// JobSpec::shape_valid().
  JobId submit(JobSpec spec);
  std::vector<JobId> submit_batch(const std::vector<JobSpec>& specs);

  /// Completes once every job submitted so far has finished or failed.
  sim::Task<void> wait_all();

  /// Completes when one specific job settles (Done or Failed). Used by the
  /// Coasters bridge, whose Swift app calls block on individual jobs.
  sim::Task<void> wait_job(JobId id);

  /// Coasters data channel (§4.1): stages `path` (which must exist on the
  /// shared filesystem) into the node-local storage of every node with a
  /// *currently connected* worker, over the worker sockets and through the
  /// same digest-addressed fan-out as job inputs, and completes when all
  /// have acknowledged. Removes the need for a separate transfer
  /// mechanism; workers that join later are unaffected.
  sim::Task<void> stage_to_workers(const std::string& path);

  const JobRecord& record(JobId id) const { return jobs_.at(id).rec; }
  std::vector<JobRecord> records() const;

  /// Writes the full scheduler state — job table with retry budgets and
  /// attempt history, worker table, pending-queue order, blacklist state,
  /// service-owned timer deadlines, the retry rng stream, counters, and the
  /// obs span journal — as a versioned image (core/snapshot.hh), in one
  /// pass from the live tables into one presized buffer.
  /// Pure: takes no locks (single-threaded), schedules no events, draws no
  /// randomness, mutates nothing, so checkpointing cannot perturb the run.
  Checkpoint checkpoint() const;

  /// The metrics registry this service reports to (dotted
  /// "jets.service.*" names, see DESIGN.md §8). All the counter accessors
  /// below are views over it — the registry holds the truth.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // Live counters (sampled by harnesses for Figs 10/13).
  std::size_t connected_workers() const { return connected_; }
  std::size_t ready_workers() const;
  std::size_t running_jobs() const { return running_; }
  std::size_t pending_jobs() const { return queue_.size(); }
  std::size_t completed_jobs() const { return m_completed_->value; }
  std::size_t failed_jobs() const { return m_failed_->value; }
  std::size_t quarantined_jobs() const { return m_quarantined_->value; }

  // Liveness/eviction counters (chaos benches and the fault-matrix tests).
  std::size_t evicted_workers() const { return m_evicted_->value; }
  std::size_t reenlisted_workers() const { return m_reenlisted_->value; }
  std::size_t heartbeats_received() const { return m_heartbeats_->value; }
  std::size_t blacklist_rejections() const {
    return m_blacklist_rejections_->value;
  }
  std::size_t blacklist_paroles() const { return m_blacklist_paroles_->value; }

  // Failure-taxonomy counters (fault-spectrum bench, Fig 10).
  /// Failures classified as `reason` across all jobs: one count per failed
  /// attempt, plus attempt-less settles (queued-job deadlines, aborts).
  std::size_t failures_by_reason(FailureReason reason) const {
    return m_failures_.at(static_cast<std::size_t>(reason))->value;
  }
  /// Delayed requeues the retry engine has scheduled.
  std::size_t retries_scheduled() const { return m_retries_scheduled_->value; }

  // Recovery counters (checkpoint/restore path; see core/snapshot.hh).
  /// Times this service was constructed from a snapshot (0 or 1).
  std::size_t restores() const { return m_restores_->value; }
  /// Checkpointed workers that redialed and reclaimed their identity.
  std::size_t workers_reconciled() const { return m_reconciled_->value; }
  /// Running jobs whose attempt survived the crash (worker + task intact
  /// across the restore) and later settled successfully.
  std::size_t jobs_rescued() const { return m_rescued_->value; }
  /// Checkpointed workers dropped because they never redialed within
  /// kRestoreGrace.
  std::size_t ghosts_dropped() const { return m_ghosts_dropped_->value; }
  /// Ghost workers still awaiting reconciliation (0 once the grace ran out).
  std::size_t awaiting_workers() const { return awaiting_; }

  // Staging counters (abl_staging bench and the staging test lane).
  /// (node, blob) pairs any job asked for — the denominator of the dedup
  /// and warm-hit rates below.
  std::size_t stage_requests() const { return m_stage_requests_->value; }
  /// Blobs pushed service->node over the fabric (cold misses).
  std::size_t stage_pushes() const { return m_stage_pushes_->value; }
  /// Blobs copied node->node because a peer already held the digest.
  std::size_t stage_peer_copies() const { return m_stage_peer_copies_->value; }
  /// Requests satisfied from warm cache with a zero-byte ack.
  std::size_t stage_warm_hits() const { return m_stage_warm_hits_->value; }
  /// Acks written off because the worker died mid-stage (satellite S1).
  std::size_t stage_acks_lost() const { return m_stage_acks_lost_->value; }
  /// Cache evictions reported by workers' staged acks.
  std::size_t stage_evictions() const { return m_stage_evictions_->value; }
  /// Bytes actually moved service->node.
  std::uint64_t stage_bytes_pushed() const { return m_stage_bytes_pushed_->value; }
  /// Bytes a naive per-job push would have moved but the cache did not
  /// (warm hits + coalesces; peer copies still move bytes, just cheaper).
  std::uint64_t stage_bytes_saved() const { return m_stage_bytes_saved_->value; }

  // --- Elastic allocations (driven by swift::BlockAllocator) -----------------
  //
  // All four calls are opt-in: a service that never sees them keeps an
  // empty elastic table, and every scheduling path below checks that
  // emptiness first — default runs stay byte-identical to the golden
  // manifest.

  /// Tags every worker on `node` with its pilot block's walltime horizon.
  /// The claim gate then refuses to place a job whose expected_runtime
  /// does not fit in the remaining walltime.
  void set_node_expiry(os::NodeId node, sim::Time expires_at);
  /// Stops placing work on `nodes` immediately; anything still running
  /// there at `deadline` is requeued with FailureReason::kWalltimeDrain
  /// (no budget charge, no blacklist strike). A deadline at or before now
  /// requeues synchronously — the preemption path relies on that to save
  /// jobs before the batch system kills the pilots.
  void drain_nodes(const std::vector<os::NodeId>& nodes, sim::Time deadline);
  /// Forgets elastic state for released nodes (a later block may reuse
  /// their ids with a fresh horizon).
  void clear_node_elastic(const std::vector<os::NodeId>& nodes);
  /// Floor for potential_capacity(): the allocator's pool ceiling. Keeps
  /// reap_unsatisfiable from aborting wide queued jobs during a scale-in,
  /// when the pool is momentarily small but can grow back.
  void set_elastic_capacity(std::size_t cap) { elastic_capacity_ = cap; }

  /// Jobs requeued at a drain deadline (the zero-jobs-lost path).
  std::size_t drain_requeues() const { return m_drain_requeues_->value; }
  /// Placements refused by the walltime claim gate.
  std::size_t gate_refusals() const { return m_gate_refusals_->value; }

  /// Test hook: the ready pool holds no duplicates and only workers that
  /// are connected, idle, and not evicted.
  bool ready_pool_consistent() const;

  // Table/slab observability (scale tests bound these; the invariant is
  // physical footprint = O(live entities), not O(events processed)).
  /// Worker slots ever allocated at once (SlotMap slab high-water).
  std::size_t worker_slab_high_water() const {
    return workers_.slab_high_water();
  }
  /// Jobs ever submitted (the job table is append-only by design).
  std::size_t job_table_size() const { return jobs_.size(); }
  /// Pending-queue entries including stale lazy-deletion copies; the
  /// compaction policy bounds this by 2 * live + O(1).
  std::size_t queue_physical_size() const { return queue_.physical_size(); }
  /// Ready-pool FIFO entries including stale copies; same bound.
  std::size_t ready_physical_size() const { return ready_.physical_size(); }

 private:
  struct Worker {
    WorkerId id = 0;
    /// Registration order (1, 2, 3, ...): handles recycle worker slots, so
    /// paths that must visit workers in registration order (stage fan-out)
    /// sort by this instead of by id.
    std::uint64_t seq = 0;
    os::NodeId node = 0;
    net::SocketPtr sock;
    bool connected = false;
    bool busy = false;
    /// Disregarded for liveness (socket may still be open). An evicted
    /// worker that sends "ready" again is re-enlisted unless blacklisted.
    bool evicted = false;
    JobId job = 0;  // 0 = none
    std::string task_id;  // task currently assigned to this worker
    /// Last time any message arrived from this worker.
    sim::Time last_heard = 0;
    /// Armed while busy when worker_liveness_timeout > 0.
    sim::TimerHandle liveness_timer;
    /// Ghost state after a restore: the worker existed in the checkpoint
    /// but has not yet redialed the restored service. It keeps its slot and
    /// capacity until reconciliation or the restore-grace reaper.
    bool awaiting = false;
    /// Armed at a ban's parole date (previously untracked — a service
    /// destroyed mid-run would leave it firing into freed memory).
    sim::TimerHandle reoffer_timer;
    /// The connection's RPC channel, owned by its worker_handler frame
    /// (valid exactly while that frame is alive; the handler nulls it in
    /// its EOF block before the slot is recycled). Run dispatches and
    /// stage-ins are issued as calls on it; on EOF or liveness eviction
    /// the channel's pending calls are failed with kPeerClosed/kCancelled,
    /// which replaces the old pending_stages write-off list.
    net::rpc::Channel* rpc = nullptr;
  };

  struct Job {
    JobRecord rec;
    /// Shared with the job-waiter actor: the waiter resumes *inside*
    /// Mpiexec::wait() when the job settles, so the object must outlive
    /// that resumption even though the service has already let go.
    std::shared_ptr<pmi::Mpiexec> mpx;
    /// The latest attempt's workers; meaningful only while kRunning.
    std::vector<WorkerId> assigned;
    std::string task_id;  // sequential jobs: the outstanding task id
    sim::TimerHandle timeout;
    bool deadline_passed = false;
    /// Armed between a failed attempt and its delayed requeue; while it is
    /// pending the job is kPending but *not* in queue_.
    sim::TimerHandle retry_timer;
    bool in_backoff = false;
    std::unique_ptr<sim::Gate> settled;  // created lazily by wait_job
    /// Open spans of this job's lifecycle (0 = not traced / not open).
    /// span_job covers submit->settle; the others are phases within it —
    /// see DESIGN.md §8 for the span tree.
    obs::SpanId span_job = 0;      // "job"
    obs::SpanId span_queued = 0;   // "job.queued" (also re-queue waits)
    obs::SpanId span_backoff = 0;  // "job.backoff" (retry engine delay)
    obs::SpanId span_attempt = 0;  // "job.attempt" (placement->settle)
    obs::SpanId span_group = 0;    // "job.group" (claim + dispatch fan-out)
    obs::SpanId span_stage = 0;    // "job.stage" (input staging fan-out)
    obs::SpanId span_run = 0;      // "job.run" (work handed over->outcome)
    /// Restored in kRunning state with its attempt's workers intact; if the
    /// attempt later succeeds it counts as "rescued" (jobs_rescued()).
    bool restored_running = false;
  };

  /// Per-node elastic-allocation state (see set_node_expiry/drain_nodes).
  /// The table is empty unless an allocator drives the elastic API, and
  /// every consumer checks that first — the golden-manifest benches never
  /// touch this code.
  struct NodeElastic {
    /// Pilot-block walltime horizon; -1 = none known.
    sim::Time expires_at = -1;
    bool draining = false;
    /// When still-running jobs get requeued (kWalltimeDrain); -1 = n/a.
    sim::Time drain_at = -1;
    sim::TimerHandle drain_timer;
  };

  /// Per-node eviction/blacklist bookkeeping (see Config::blacklist_after
  /// and Config::blacklist_probation).
  struct NodeHealth {
    int evictions = 0;
    bool banned = false;
    /// Parole time; -1 = permanent (blacklist_probation == 0).
    sim::Time banned_until = -1;
  };

  /// Registers the service's instruments in metrics_ and caches m_*.
  void init_metrics();
  /// Restore path (defined in snapshot.cc with the codec): rebuilds every
  /// table, queue, counter, and timer from a parsed snapshot, moving the
  /// job records out of it. Only the recovery constructor calls it, on a
  /// freshly constructed service.
  void apply_snapshot(Snapshot&& snap);
  /// The live tables as the snapshot encoder's row source (snapshot.cc).
  class ImageRows;
  /// Fires kRestoreGrace after a restore: drops ghost workers that never
  /// redialed, requeueing their jobs with kServiceRestart.
  void reconcile_ghosts();
  /// Adopts a redialing pilot into a ghost slot (heartbeat reconciliation).
  /// `inventory` is the task ids the pilot still has in flight; returns the
  /// adopted worker's id, or 0 if no ghost matches (register as new).
  WorkerId adopt_ghost(os::NodeId node, net::SocketPtr sock,
                       const std::vector<std::string>& inventory);
  /// The machine's tracer, or nullptr when tracing is off.
  obs::Tracer* tracer() const;
  /// Closes any span of `job` that is still open (settle paths).
  void close_job_spans(Job& job);

  sim::Task<void> accept_loop();
  sim::Task<void> worker_handler(net::SocketPtr sock);
  sim::Task<void> dispatch_loop();
  void kick() { kick_ch_->push(0); }

  /// Picks the next dispatchable job per policy, or nullopt.
  std::optional<JobId> choose_job();
  /// Selects and claims `count` ready workers (FCFS or network-aware; when
  /// `spec` names stage_files, the window maximizing resident input bytes
  /// wins, ties keep the min-span pick).
  std::vector<WorkerId> claim_workers(std::size_t count, const JobSpec& spec);
  sim::Task<void> place_job(JobId id);
  void job_finished(JobId id, int status, FailureReason reason);
  void deadline_expired(JobId id);
  void check_all_done();

  /// Retry policy engine.
  const RetryPolicy& policy_for(const Job& job) const {
    return job.rec.spec.retry ? *job.rec.spec.retry : config_.retry;
  }
  /// Backoff before retry number `failures` (1-based), jitter included.
  sim::Duration backoff_delay(const RetryPolicy& pol, int failures);
  /// Fires when a backoff timer expires: requeues (or fails, if the
  /// machine shrank below the job's width meanwhile).
  void requeue_job(JobId id);
  /// Terminal-state bookkeeping shared by every settle site.
  void settle_job(Job& job, JobStatus status, FailureReason reason);
  /// kWorkerLost for one-worker jobs, kGangPartnerLost for gangs.
  FailureReason worker_lost_reason(const Job& job) const;
  /// Maps a failed mpiexec run onto the taxonomy.
  FailureReason classify_mpi_failure(const Job& job,
                                     const pmi::Mpiexec& mpx) const;

  /// Graceful degradation: workers that could still serve jobs (connected,
  /// or evicted but able to re-enlist).
  std::size_t potential_capacity() const;
  /// Fails queued/backing-off jobs that were once satisfiable but whose
  /// width now exceeds potential_capacity() forever (kServiceAbort).
  void reap_unsatisfiable();

  /// Elastic machinery: walltime-aware claim gate + drain requeues.
  /// A worker may take `spec` iff its node is not draining and the block's
  /// remaining walltime covers the job's expected runtime.
  bool worker_eligible(const Worker& w, const JobSpec& spec) const;
  std::size_t count_eligible(const JobSpec& spec) const;
  /// FCFS among eligible workers (elastic mode trades the O(1) pop for an
  /// O(ready) scan; elastic pools are far from the 10^6-worker hot path).
  std::vector<WorkerId> claim_eligible(std::size_t count, const JobSpec& spec);
  /// Fires at a node's drain deadline: requeues anything still running
  /// there with kWalltimeDrain before the pilots die.
  void drain_deadline(os::NodeId node);

  /// A worker joins (true) or leaves (false) the connected capacity: the
  /// flag, the count, its gauge and the peak all move together.
  void set_connected(Worker& w, bool on);
  /// Takes an evicted worker back into the connected capacity, counted as
  /// re-enlisted (the caller offers it to the ready pool).
  void reenlist(Worker& w);

  /// Liveness machinery (§5 feature 3 taken beyond EOF detection).
  void liveness_check(WorkerId wid);
  void evict_worker(WorkerId wid);
  /// Ban check without side effects (used by const paths).
  bool node_banned(os::NodeId node) const;
  /// Ban check that applies lazy parole when probation has expired.
  bool node_blacklisted(os::NodeId node);
  /// Fires at a ban's parole date: re-enlists a still-connected evicted
  /// worker whose "ready" was refused during probation (it waits silently,
  /// so nothing else would re-offer it).
  void reoffer_worker(WorkerId wid);
  /// Returns claimed-but-never-dispatched workers to the ready pool when a
  /// job settles mid-placement (otherwise they would leak as busy).
  void release_undispatched(const std::vector<WorkerId>& claimed,
                            std::size_t from_idx);

  // --- Input staging (CAS replication planner; see DESIGN.md §11) ---
  /// Digest + size of a shared-fs path, interned on first sight so every
  /// job naming the same path agrees on the blob identity.
  std::pair<StageDigest, std::uint64_t> blob_for(const std::string& path);
  /// Stages `paths` onto the nodes of `targets`, through the first target
  /// on each node: warm cache -> zero-byte ack, in-flight (node, digest)
  /// -> coalesce on the slot gate, otherwise plan push vs peer copy and
  /// send the header. Awaits every ack (or write-off). Stops early once
  /// attempt `attempt` of job `id` has settled (id 0 = no job); callers
  /// must re-check job state after the co_await, exactly like the
  /// dispatch fan-out.
  sim::Task<void> stage_inputs(const std::vector<std::string>& paths,
                               const std::vector<WorkerId>& targets, JobId id,
                               int attempt);
  /// Records a "staged" ack's blob as resident on `node` and applies the
  /// evictions it reports.
  void commit_staged(os::NodeId node, const net::rpc::StageAck& ack);
  /// Completion of one StageReq call: on success commits residency and
  /// applies the ack's eviction reports; on error (peer closed, evicted)
  /// writes the in-flight transfer off so a later job re-stages. Either
  /// way decrements the slot's remaining count, opening the gate at zero.
  void stage_call_settled(
      os::NodeId node, StageDigest digest,
      net::rpc::Expected<net::rpc::StageAck, net::rpc::RpcError> r);
  /// A sequential task's "done" for job `jid` (the run call's completion,
  /// or an unmatched done resolved through its worker): settles the
  /// job's attempt if the task is still the job's current one.
  void on_task_done(JobId jid, const net::rpc::TaskDone& done);
  /// The job whose current task is `task_id`, for a done `sender` sent
  /// with no call pending; 0 if no job has that task.
  JobId task_holder(WorkerId sender, const std::string& task_id) const;

  os::Machine* machine_;
  const os::AppRegistry* apps_;
  os::NodeId host_;
  Config config_;
  Hooks hooks_;

  net::Address addr_{};
  std::unique_ptr<net::Listener> listener_;
  std::vector<sim::ActorId> actors_;  // accept, dispatch, handlers, waiters
  std::unique_ptr<sim::Channel<int>> kick_ch_;
  std::unique_ptr<sim::Gate> all_done_;
  bool started_ = false;

  std::uint64_t next_worker_seq_ = 1;
  std::uint64_t next_task_ = 1;
  /// Jobs are append-only (records outlive settles) and JobIds are handed
  /// out densely, so the table *is* the id space; workers recycle slots at
  /// EOF behind generation-checked handles. See core/table.hh.
  DenseTable<Job> jobs_;
  SlotMap<Worker> workers_;
  PendingQueue queue_;
  ReadyPool ready_;
  /// In-flight stage-ins, digest-keyed (satellite S2 — replaces the old
  /// path-keyed std::map<std::string, StageOp>).
  StageTable staging_;
  /// Which digests are warm/in-flight per node; feeds the replication
  /// planner (peer candidates) and the data-aware window score.
  ResidencyTable residency_;
  /// path -> (digest, bytes), interned by blob_for. Ordered so snapshot
  /// serialization walks it deterministically.
  std::map<std::string, std::pair<StageDigest, std::uint64_t>> blob_info_;
  std::map<os::NodeId, NodeHealth> node_health_;
  /// Ordered so the checkpoint codec and drain sweeps walk it
  /// deterministically. Empty on every non-elastic run.
  std::map<os::NodeId, NodeElastic> node_elastic_;
  /// Capacity floor while an elastic allocator is attached (0 = none).
  std::size_t elastic_capacity_ = 0;
  sim::Rng retry_rng_;
  std::size_t connected_ = 0;
  /// Workers currently disregarded but able to re-enlist; keeps
  /// potential_capacity() O(1) when blacklisting is off (the hot default),
  /// since reap_unsatisfiable runs on every EOF/eviction.
  std::size_t evicted_live_ = 0;
  /// Most workers ever simultaneously connected — a job whose width once
  /// fit under this was satisfiable at some point (see reap_unsatisfiable).
  std::size_t peak_capacity_ = 0;
  std::size_t running_ = 0;
  /// Jobs waiting out a retry backoff (kPending but not in queue_).
  std::size_t backing_off_ = 0;
  /// Ghost workers from a restore still awaiting reconciliation. The
  /// registration path only looks for ghosts while this is nonzero, so the
  /// normal (never-restored) path pays nothing.
  std::size_t awaiting_ = 0;
  /// Armed by apply_snapshot when ghosts exist; fires reconcile_ghosts.
  sim::TimerHandle reconcile_timer_;

  /// Instruments cached out of the registry at construction (stable
  /// addresses): one pointer-indirect add per event, no name lookups on
  /// the hot path. The registry (metrics_) holds the authoritative values.
  obs::MetricsRegistry metrics_;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_failed_ = nullptr;
  obs::Counter* m_quarantined_ = nullptr;
  obs::Counter* m_evicted_ = nullptr;
  obs::Counter* m_reenlisted_ = nullptr;
  obs::Counter* m_heartbeats_ = nullptr;
  obs::Counter* m_blacklist_rejections_ = nullptr;
  obs::Counter* m_blacklist_paroles_ = nullptr;
  obs::Counter* m_retries_scheduled_ = nullptr;
  obs::Counter* m_restores_ = nullptr;
  obs::Counter* m_reconciled_ = nullptr;
  obs::Counter* m_rescued_ = nullptr;
  obs::Counter* m_ghosts_dropped_ = nullptr;
  obs::Counter* m_stage_requests_ = nullptr;
  obs::Counter* m_stage_pushes_ = nullptr;
  obs::Counter* m_stage_peer_copies_ = nullptr;
  obs::Counter* m_stage_warm_hits_ = nullptr;
  obs::Counter* m_stage_coalesced_ = nullptr;
  obs::Counter* m_stage_acks_lost_ = nullptr;
  obs::Counter* m_stage_evictions_ = nullptr;
  obs::Counter* m_stage_bytes_pushed_ = nullptr;
  obs::Counter* m_stage_bytes_saved_ = nullptr;
  obs::Counter* m_drain_requeues_ = nullptr;
  obs::Counter* m_gate_refusals_ = nullptr;
  std::array<obs::Counter*, kFailureReasonCount> m_failures_{};
  /// Shared instrument block for every worker connection's rpc::Channel;
  /// its counters register through reg() below so they checkpoint too.
  net::rpc::ChannelMetrics rpc_metrics_;
  /// Every counter above by registry name, in registration order — the
  /// checkpoint codec walks this to serialize counter values and restore
  /// assigns through it, so the two sides can never drift apart.
  std::vector<std::pair<std::string, obs::Counter*>> counter_index_;
  obs::Gauge* m_workers_connected_ = nullptr;
  obs::Gauge* m_jobs_running_ = nullptr;
  obs::Histogram* m_queue_wait_ = nullptr;
  obs::Histogram* m_job_wall_ = nullptr;
};

}  // namespace jets::core
