// Hydra: the MPICH2 process manager, as modified for JETS.
//
// The real flow this reproduces (paper §4.2, §5):
//
//   1. `mpiexec` starts on the submit/login node, binds a control port, and
//      — with the JETS-contributed `launcher=manual` bootstrap — *reports*
//      the Hydra proxy command lines instead of exec'ing them. Any external
//      agent (the JETS worker) can then start those proxies.
//   2. Each proxy starts on a compute node, dials the control port,
//      receives the user executable spec, and forks the local MPI ranks
//      with PMI_RANK/PMI_SIZE in their environment.
//   3. Ranks speak PMI through the control connection: publish their
//      connection cards in the KVS, fence, fetch peers, then talk MPI
//      directly over sockets.
//   4. Proxies report rank exit statuses; mpiexec completes, and its
//      caller (JETS) checks the output for errors.
//
// The classic `launcher=ssh` bootstrap is also provided as the baseline
// used by the paper's "shell script" comparison (Fig 7).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/socket.hh"
#include "obs/span.hh"
#include "os/machine.hh"
#include "os/program.hh"
#include "pmi/kvs.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace jets::pmi {

/// Name under which the proxy executable is installed/staged; JETS stages
/// this binary to node-local storage for fast startup (§5, feature 2).
inline constexpr const char* kProxyBinary = "hydra_pmi_proxy";

struct MpiexecSpec {
  /// User command, resolved via the AppRegistry at rank start.
  std::vector<std::string> user_argv;
  int nprocs = 1;
  /// Ranks per proxy ("PPN" in §6.2.1): one proxy per node, ppn ranks each.
  int ranks_per_proxy = 1;
  /// Extra environment for the user processes.
  std::map<std::string, std::string> user_vars;
  /// Binary whose load cost is charged when a rank starts (defaults to
  /// user_argv[0]).
  std::string user_binary;
  /// Serialized per-proxy bootstrap handling cost inside this mpiexec
  /// (command construction, host bookkeeping, environment marshalling).
  /// This is why wide jobs are "individually slower to start" (Fig 9):
  /// a 64-proxy job pays 64x this, one after another.
  sim::Duration proxy_setup_cost = sim::microseconds(500);
  /// Launch-phase deadline: every proxy must dial back AND every rank must
  /// reach pmi.init within this long of start(), or the job fails fast with
  /// MpiexecFailKind::kLaunchTimeout. 0 disables the deadline. This covers
  /// the window a job-level timeout (which defaults to off) would not: a
  /// proxy hung or killed *before wiring completed* otherwise blocks wait()
  /// forever.
  sim::Duration launch_timeout = 0;
  /// Observability: when a tracer is attached to the machine, this
  /// mpiexec's spans ("mpiexec", "mpiexec.launch", "mpiexec.run",
  /// "mpiexec.proxy_setup") are recorded on `trace_track` under
  /// `trace_parent` — JETS passes its job track and "job.attempt" span so
  /// launcher time nests inside the job timeline. 0/0 = root spans on
  /// track 0.
  std::uint64_t trace_track = 0;
  obs::SpanId trace_parent = 0;
};

/// Coarse classification of why an mpiexec run failed, for the scheduler's
/// failure taxonomy. kNone until the first failure; the *first* failure wins
/// (a launch timeout that later also sees proxy EOFs stays kLaunchTimeout).
enum class MpiexecFailKind {
  kNone = 0,       // no failure (yet)
  kExit,           // a proxy reported a nonzero rank exit status
  kDisconnect,     // a proxy or rank connection died before its exit report
  kLaunchTimeout,  // the gang never finished wiring within launch_timeout
  kAborted,        // abort() was called (scheduler timeout / preemption)
};

/// One mpiexec instance == one MPI job. JETS runs many of these
/// concurrently in the background of the submit site (§5: "Hundreds of
/// mpiexec processes do not place a noticeable load on the submit site").
class Mpiexec {
 public:
  Mpiexec(os::Machine& machine, const os::AppRegistry& apps, os::NodeId host,
          MpiexecSpec spec);
  ~Mpiexec();
  Mpiexec(const Mpiexec&) = delete;
  Mpiexec& operator=(const Mpiexec&) = delete;

  /// Binds the control port and starts the control service.
  void start();

  net::Address control_address() const { return control_addr_; }
  int proxy_count() const;
  const MpiexecSpec& spec() const { return spec_; }

  /// launcher=manual: the proxy command lines an external scheduler must
  /// execute, one per proxy (JETS ships these to its workers).
  std::vector<std::vector<std::string>> proxy_commands() const;

  /// launcher=ssh baseline: mpiexec itself starts the proxies on the given
  /// hosts, paying `ssh_cost` per host *sequentially* (connection setup,
  /// auth — why ssh launching is slow at scale).
  void launch_via_ssh(const std::vector<os::NodeId>& hosts,
                      sim::Duration ssh_cost);

  /// Completes when the job has finished; 0 = all ranks/proxies clean,
  /// nonzero = a proxy or rank failed or disconnected early.
  sim::Task<int> wait();

  /// True once every proxy reported (or failed); wait() would not block.
  bool done() const { return done_gate_ && done_gate_->is_open(); }

  /// Marks the job failed and releases wait()ers immediately — used by the
  /// scheduler for timeouts / preemption. Idempotent; no-op once done.
  void abort(const std::string& why = "aborted");

  /// Why the job failed (kNone if it has not failed). First failure wins.
  MpiexecFailKind fail_kind() const { return fail_kind_; }
  const std::string& failure_reason() const { return failure_reason_; }

  /// True once every proxy dialed back and every rank reached pmi.init —
  /// the window the launch-phase deadline covers is over.
  bool launch_complete() const { return launched_; }

  /// Total application stdout bytes routed app->proxy->mpiexec (§6.1.6).
  std::uint64_t stdout_bytes() const { return stdout_bytes_; }

  /// Builds the proxy Program body. Installed once per AppRegistry:
  ///   registry.install(kProxyBinary, Mpiexec::proxy_program(registry));
  /// The registry reference must outlive all launched proxies.
  static os::Program proxy_program(const os::AppRegistry& apps);

 private:
  sim::Task<void> control_service();
  sim::Task<void> handle_connection(net::SocketPtr sock);
  void note_proxy_done(int code);
  void note_launch_progress();
  void fail(MpiexecFailKind kind, const std::string& why);
  /// Closes whatever lifecycle spans are still open (done/fail/teardown).
  void close_spans();

  os::Machine* machine_;
  const os::AppRegistry* apps_;
  os::NodeId host_;
  MpiexecSpec spec_;
  net::Address control_addr_{};
  std::optional<net::Listener> listener_;
  sim::ActorId control_actor_ = 0;
  std::vector<sim::ActorId> handler_actors_;
  bool started_ = false;

  KeyValueSpace kvs_;
  std::unique_ptr<sim::Semaphore> setup_sem_;  // serializes proxy bootstrap
  int barrier_waiting_ = 0;
  std::vector<net::SocketPtr> rank_socks_;  // indexed by rank
  int proxies_done_ = 0;
  int failures_ = 0;
  int proxies_wired_ = 0;  // sent proxy.hello and received proxy.exec
  int ranks_inited_ = 0;   // sent pmi.init
  bool launched_ = false;
  sim::TimerHandle launch_timer_;
  MpiexecFailKind fail_kind_ = MpiexecFailKind::kNone;
  std::uint64_t stdout_bytes_ = 0;
  std::unique_ptr<sim::Gate> done_gate_;
  std::string failure_reason_;
  /// Lifecycle spans (0 = not traced / not open): "mpiexec" covers
  /// start->done, "mpiexec.launch" start->launch_complete, "mpiexec.run"
  /// launch_complete->done.
  obs::SpanId span_mpx_ = 0;
  obs::SpanId span_launch_ = 0;
  obs::SpanId span_run_ = 0;
};

}  // namespace jets::pmi
