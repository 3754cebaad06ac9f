// The stand-alone `jets` tool (§5.1): maximum-performance batch execution
// of a pre-defined task list, without the Swift layer.
//
// Given an allocation's node list, it starts the central Service on the
// login node, a configurable number of pilot workers per compute node (the
// provided "starter scripts"), submits the batch, and reports per-job
// records plus the utilization metric of Eq. (1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/job.hh"
#include "core/service.hh"
#include "core/worker.hh"
#include "os/machine.hh"
#include "os/program.hh"
#include "sim/stats.hh"

namespace jets::core {

struct StandaloneOptions {
  /// Pilot slots per compute node (1 on BG/P experiments of §6.1.4; one
  /// per core for the sequential-rate test of §6.1.1).
  int workers_per_node = 1;
  /// Per-worker configuration; the service address is filled in by start().
  WorkerConfig worker;
  Service::Config service;
  /// Ranks-per-worker applied to parsed "MPI: n ..." lines.
  int default_ppn = 1;
};

/// Outcome of a batch run, with the paper's Eq. (1) utilization.
struct BatchReport {
  std::vector<JobRecord> records;
  sim::Time batch_started = 0;
  sim::Time batch_finished = 0;
  std::size_t completed = 0;
  /// Jobs that did not finish: kFailed *and* kQuarantined.
  std::size_t failed = 0;
  /// Of `failed`, jobs quarantined as poison (app budget exhausted).
  std::size_t quarantined = 0;
  std::size_t total_slots = 0;

  double makespan_seconds() const {
    return sim::to_seconds(batch_finished - batch_started);
  }

  /// Eq. (1): sum over jobs of (duration x slots used) divided by
  /// (allocation slots x batch wall time). With one worker per node and one
  /// rank per worker this is exactly the paper's metric.
  double utilization() const;

  /// Distribution of successful jobs' wall times (Fig 11).
  sim::Summary wall_times() const;
};

class StandaloneJets {
 public:
  StandaloneJets(os::Machine& machine, const os::AppRegistry& apps,
                 StandaloneOptions options);

  /// Starts the service (login node) and the workers (allocation nodes).
  void start(const std::vector<os::NodeId>& allocation);

  Service& service() { return *service_; }
  const std::vector<os::Machine::Pid>& worker_pids() const { return workers_; }
  std::size_t total_slots() const { return workers_.size(); }

  /// Completes once at least `n` workers have registered (0 = all started
  /// slots). Benches use this so batch makespans exclude the pilot-boot /
  /// staging ramp, as the paper's measurements do.
  sim::Task<void> wait_workers(std::size_t n = 0);

  /// Submits jobs and completes when the whole batch has settled.
  sim::Task<BatchReport> run_batch(std::vector<JobSpec> jobs);

  /// Convenience: parse the §5.1 input format and run it.
  sim::Task<BatchReport> run_input(const std::string& input_text);

  // Crash-recovery drill — the natural wiring for a chaos kServiceCrash
  // fault (ChaosEngine::set_service_crash): crash on fire, restore from the
  // latest checkpoint `duration` later. Coroutines suspended in wait_all()
  // or wait_job() when the service crashes are never resumed (their gates
  // die with it, exactly like RPC clients of a crashed scheduler); recovery
  // harnesses poll the service's counters instead.
  /// Image of the live service's scheduler state (see core/snapshot.hh).
  Checkpoint checkpoint() const;
  /// Destroys the service mid-run: actors die, timers disarm, the listen
  /// port closes. Workers see EOF and (when configured with
  /// reconnect_backoff) start redialing.
  void crash_service();
  /// Fresh service restored from `snap` (its job records are moved into the
  /// new table), started on the checkpointed listen address so redialing
  /// pilots find it. Requires service_up() == false.
  void restore_service(Snapshot snap);
  bool service_up() const { return service_ != nullptr; }

 private:
  os::Machine* machine_;
  const os::AppRegistry* apps_;
  StandaloneOptions options_;
  std::unique_ptr<Service> service_;
  std::vector<os::Machine::Pid> workers_;
};

/// Starts one pilot worker on `node`; returns its pid (kill it to simulate
/// a node fault, as the Fig 10 harness does).
os::Machine::Pid start_worker(os::Machine& machine, const os::AppRegistry& apps,
                              os::NodeId node, WorkerConfig config);

}  // namespace jets::core
