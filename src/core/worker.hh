// The JETS worker agent (pilot job).
//
// One worker occupies one scheduling slot on a compute node for the life of
// an allocation. At startup it optionally stages files (the Hydra proxy
// binary, the application image, reused input data) from the shared
// filesystem into node-local storage (§5 feature 2 — "local storage ...
// boosts startup performance"), then registers with the central JETS
// service and executes whatever command lines it is handed: Hydra proxy
// invocations for MPI jobs, or plain commands for sequential tasks.
//
// Workers are persistent — they amortize scheduler/launch costs across many
// tasks, which is the core reason JETS beats per-job mpiexec/ssh launching
// (Fig 7).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/socket.hh"
#include "os/machine.hh"
#include "os/program.hh"
#include "sim/sync.hh"
#include "sim/time.hh"

namespace jets::core {

/// Hang fault primitive (chaos class 3): freezes a pilot's task-handling —
/// inbound messages stop being processed, completed tasks stop being
/// reported, heartbeats stop — while the worker's socket stays *open*, so
/// the service sees silence rather than EOF. This is the failure mode §5's
/// "disregards workers that fail or hang" must catch without TCP's help.
class WorkerHangControl {
 public:
  WorkerHangControl(sim::Engine& engine, os::NodeId node)
      : node_(node), resume_(engine) {
    resume_.open();
  }

  os::NodeId node() const noexcept { return node_; }
  bool hung() const noexcept { return !resume_.is_open(); }

  void hang() { resume_.close(); }
  void release() { resume_.open(); }

  /// Awaited by the worker's actors at every handling point; blocks while
  /// hung, passes through instantly otherwise.
  sim::Gate& gate() { return resume_; }

 private:
  os::NodeId node_;
  sim::Gate resume_;
};

/// Hands each started worker's hang control to the chaos layer. Shared by
/// value through WorkerConfig; workers register themselves at startup, in
/// deterministic start order.
struct WorkerHangRegistry {
  std::vector<std::shared_ptr<WorkerHangControl>> controls;
};

struct WorkerConfig {
  /// The JETS service to register with.
  net::Address service{};
  /// Files copied shared-fs -> node-local storage before registering
  /// ("provided to the JETS start-up script as a simple list", §5).
  std::vector<std::string> stage_files;
  /// Per-task wrapper cost: the pilot script's bookkeeping, environment
  /// setup, and fork of each task. Dominated by interpreter speed — large
  /// on BG/P's 850 MHz cores, small on x86 (see bench calibration notes).
  sim::Duration task_overhead = sim::milliseconds(5);
  /// Worker-side watchdog: a task still running after this long is killed
  /// and reported failed (exit 124), so a hung application cannot wedge
  /// the pilot slot — the "hang" half of §5's fault-tolerance claim.
  /// 0 disables.
  sim::Duration task_watchdog = 0;
  /// Liveness heartbeat: while the worker has tasks outstanding it pings
  /// the service every interval, so the service can tell "busy on a long
  /// task" from "hung with the socket still open". 0 disables. Pair with
  /// Service::Config::worker_liveness_timeout (> this interval).
  sim::Duration heartbeat_interval = 0;
  /// When set, the worker registers a hang control here at startup so a
  /// chaos plan can freeze it (see WorkerHangControl).
  std::shared_ptr<WorkerHangRegistry> hang_registry;
  /// Crash-recovery redial: on EOF from the service, retry the connection
  /// with linear backoff (attempt k waits k * reconnect_backoff) instead of
  /// exiting, up to reconnect_attempts tries. The re-registration carries
  /// the pilot's outstanding task inventory so a snapshot-restored service
  /// can reconcile the pilot with its checkpointed ghost (see
  /// Service::kRestoreGrace). 0 disables — EOF ends the pilot, the
  /// pre-recovery behavior and the default for every golden benchmark.
  sim::Duration reconnect_backoff = 0;
  int reconnect_attempts = 10;
};

/// Builds the worker agent program. `apps` resolves task argv[0]s and must
/// outlive all workers. Install into a registry or exec directly via
/// run_command.
os::Program worker_program(const os::AppRegistry& apps, WorkerConfig config);

}  // namespace jets::core
