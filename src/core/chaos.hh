// Deterministic chaos engine: a scheduled fault plan over the simulated
// machine, generalizing the paper's faulty-setting protocol (§6.1.5) from
// "kill a random pilot every N seconds" to four fault classes:
//
//   kKillPilot   — SIGKILL a pilot process. Its task subtree dies with it
//                  and the service notices through the broken socket (the
//                  original Fig 10 fault).
//   kSocketClose — RST every connection touching a node: in-flight bytes
//                  vanish, both ends see EOF now (a switch port dying).
//   kSocketStall — freeze a node's network sends and deliveries for a
//                  fixed window (deep congestion, a flapping link). The
//                  connection *survives*; traffic resumes afterwards.
//   kHangWorker  — freeze a pilot's task-handling actor while its socket
//                  stays open (wedged interpreter, D-state process). Only
//                  the service-side liveness deadline can catch this.
//   kSlowNode    — multiply a node's fork/exec and compute costs (thermal
//                  throttling, a sick DIMM). Optionally heals later.
//   kServiceCrash— the service process itself dies and is restored from a
//                  checkpoint `duration` later (the service-crash-and-
//                  recover fault class). The engine only orchestrates: the
//                  harness supplies crash/restore callbacks via
//                  set_service_crash(), typically Snapshot-backed.
//   kAllocationDeny — the batch system refuses the next submit outright
//                  (site policy, exhausted fair-share). Needs
//                  set_batch_scheduler().
//   kAllocationStall — the batch queue freezes for `duration`: pending and
//                  new requests sit until the stall clears (a wedged
//                  scheduler daemon, a reservation blocking backfill).
//   kPreemption  — a granted block is revoked ahead of its walltime
//                  (backfill preemption, reservation reclaim), exercising
//                  the same drain/requeue machinery as walltime expiry.
//
// Every random choice draws from one explicitly seeded sim::Rng at fire
// time, and all faults are armed on the simulation clock, so a chaos run
// is byte-reproducible: same seed + same plan => identical execution.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/worker.hh"
#include "obs/metrics.hh"
#include "os/machine.hh"
#include "sim/random.hh"
#include "sim/time.hh"

namespace jets::core {

enum class FaultKind {
  kKillPilot,
  kSocketClose,
  kSocketStall,
  kHangWorker,
  kSlowNode,
  kServiceCrash,
  kAllocationDeny,
  kAllocationStall,
  kPreemption,
};

/// Sentinel for Fault::node: pick a target deterministically (from the
/// chaos rng) at fire time.
inline constexpr os::NodeId kRandomTarget =
    std::numeric_limits<os::NodeId>::max();

/// One scheduled fault.
struct Fault {
  /// Absolute simulation time to fire at.
  sim::Time at = 0;
  FaultKind kind = FaultKind::kKillPilot;
  /// Target node for socket/slow faults, and preferred node for hangs
  /// (kKillPilot always picks a random remaining pilot).
  os::NodeId node = kRandomTarget;
  /// kSocketStall: stall window. kHangWorker: release after this long
  /// (0 = hung forever). kSlowNode: heal after this long (0 = permanent).
  sim::Duration duration = 0;
  /// kSlowNode multipliers (>= 1.0 degrades; 1.0/1.0 is a no-op heal).
  double exec_scale = 1.0;
  double compute_scale = 1.0;
};

struct ChaosCounters {
  std::size_t pilots_killed = 0;
  std::size_t connections_reset = 0;  // RST'd by kSocketClose faults
  std::size_t nodes_stalled = 0;
  std::size_t workers_hung = 0;
  std::size_t workers_released = 0;
  std::size_t nodes_degraded = 0;
  std::size_t services_crashed = 0;
  std::size_t services_restored = 0;
  std::size_t allocations_denied = 0;
  std::size_t allocations_stalled = 0;
  std::size_t allocations_preempted = 0;
};

class ChaosEngine {
 public:
  ChaosEngine(os::Machine& machine, sim::Rng rng)
      : machine_(&machine), rng_(rng) {}

  /// Candidate victims for kKillPilot faults (each killed at most once).
  void set_pilots(std::vector<os::Machine::Pid> pilots) {
    pilots_ = std::move(pilots);
  }
  /// Candidate targets for random-node socket/slow faults. Defaults to
  /// every compute node of the machine.
  void set_nodes(std::vector<os::NodeId> nodes) { nodes_ = std::move(nodes); }
  /// Source of hang controls for kHangWorker faults (workers started with
  /// WorkerConfig::hang_registry register themselves here).
  void set_hang_registry(std::shared_ptr<WorkerHangRegistry> registry) {
    registry_ = std::move(registry);
  }
  /// Callbacks for kServiceCrash faults: `crash` tears the service down
  /// (typically after taking a Snapshot), `restore` brings it back. The
  /// restore fires `duration` after the crash (0 = next event at the same
  /// time). Without these, kServiceCrash faults are inert.
  void set_service_crash(std::function<void()> crash,
                         std::function<void()> restore) {
    crash_cb_ = std::move(crash);
    restore_cb_ = std::move(restore);
  }
  /// Target for allocation faults (deny/stall/preempt). Without it those
  /// fault kinds are inert. The scheduler must outlive the engine.
  void set_batch_scheduler(os::BatchScheduler* sched) { batch_sched_ = sched; }

  /// Adds one fault to the plan. Must be called before start().
  void add(Fault f) { plan_.push_back(f); }

  /// Adds `count` faults of `kind` at first_at, first_at + interval, ...
  /// with random targets and the given per-fault duration.
  void add_periodic(FaultKind kind, sim::Time first_at, sim::Duration interval,
                    std::size_t count, sim::Duration duration = 0);

  /// Arms the whole plan on the engine clock. Call once.
  void start();

  const ChaosCounters& counters() const { return counters_; }

  /// Mirrors every ChaosCounters bump into `registry` as "jets.chaos.*"
  /// counters, so a harness snapshotting one registry sees injected-fault
  /// counts next to the service's failure taxonomy. Call before start();
  /// the registry must outlive the engine. Idempotent: re-attaching the
  /// same registry is a no-op, and attaching a different one first syncs
  /// the accumulated counts into it — a restored Service re-binding its
  /// registry may call this again safely.
  void attach_metrics(obs::MetricsRegistry& registry);

 private:
  void fire(const Fault& f);
  /// ++counters_.<member> mirrored to the registry when attached.
  void bump(std::size_t ChaosCounters::* member, std::size_t d = 1);
  /// Resolves a fault's target node (drawing from rng_ when random).
  os::NodeId pick_node(const Fault& f);

  os::Machine* machine_;
  sim::Rng rng_;
  std::vector<Fault> plan_;
  std::vector<os::Machine::Pid> pilots_;
  std::vector<os::NodeId> nodes_;
  std::shared_ptr<WorkerHangRegistry> registry_;
  std::function<void()> crash_cb_;
  std::function<void()> restore_cb_;
  os::BatchScheduler* batch_sched_ = nullptr;
  ChaosCounters counters_;
  obs::MetricsRegistry* metrics_ = nullptr;
  bool started_ = false;
};

}  // namespace jets::core
