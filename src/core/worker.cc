#include "core/worker.hh"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "net/rpc.hh"
#include "net/staging.hh"
#include "obs/tracer.hh"
#include "os/cas.hh"

namespace jets::core {

namespace {

/// A task started but not yet reported done.
struct Outstanding {
  std::string task_id;
  os::Machine::Pid pid;
};

/// State shared between the worker's receive loop, its task wrappers, and
/// its heartbeat actor.
struct WorkerState {
  net::SocketPtr sock;
  /// Tasks started but not yet reported done, in start order. A pilot runs
  /// one task at a time (a few with oversubscription), so a scan is short
  /// and the vector's capacity is reused task after task.
  std::vector<Outstanding> outstanding;
  /// Chaos hang control, if a registry was configured (null otherwise).
  std::shared_ptr<WorkerHangControl> ctl;
  /// Open while `outstanding` is non-empty; the heartbeat actor parks on
  /// it when the worker is idle so an idle worker generates *no* events
  /// (the engine's run-to-quiescence termination depends on that). Only
  /// allocated when heartbeats are enabled.
  std::unique_ptr<sim::Gate> work_gate;
  /// Set on worker shutdown so the heartbeat actor exits.
  bool closed = false;

  bool hung() const { return ctl && ctl->hung(); }

  std::vector<Outstanding>::iterator find(const std::string& task_id) {
    return std::find_if(
        outstanding.begin(), outstanding.end(),
        [&](const Outstanding& o) { return o.task_id == task_id; });
  }
  /// Forgets `task_id`; false if it was not outstanding.
  bool erase(const std::string& task_id) {
    const auto it = find(task_id);
    if (it == outstanding.end()) return false;
    outstanding.erase(it);
    return true;
  }
  void track_work() {
    if (!work_gate) return;
    if (outstanding.empty()) {
      work_gate->close();
    } else {
      work_gate->open();
    }
  }
};

/// Wraps one task execution: resolves and runs the command, then reports
/// done/ready — unless the task was already reaped by a "kill". Reports go
/// through state->sock (not a channel): the wrapper can outlive the
/// connection it was dispatched on, and its done must follow the redial.
sim::Task<void> task_wrapper(os::Machine* machine, const os::AppRegistry* apps,
                             os::NodeId node, net::rpc::TaskRun req,
                             std::shared_ptr<WorkerState> state) {
  os::Env env;
  env.machine = machine;
  env.node = node;
  env.argv = std::move(req.argv);
  env.vars = std::move(req.vars);
  // RAII: if the pilot (and so this wrapper) is killed mid-task, frame
  // teardown closes the span at the kill time.
  obs::ScopedSpan span(machine->tracer(), "worker.task",
                       obs::track_node(node));
  span.attr("task", req.task_id);
  int status = 0;
  try {
    const os::Program& program = apps->lookup(env.argv.at(0));
    co_await program(env);
  } catch (...) {
    status = 1;
  }
  // A hung pilot stops *reporting*: the application process may well have
  // finished, but the wrapper script that would send "done" is frozen.
  if (state->hung()) co_await state->ctl->gate().wait();
  // If a "kill" raced ahead of completion, the kill handler already
  // reported this task; avoid a duplicate done/ready pair.
  if (!state->erase(req.task_id)) co_return;
  state->track_work();
  net::rpc::post(*state->sock,
                 net::rpc::TaskDone{req.task_id, status,
                                    net::rpc::TaskDone::Reason::kApp});
  net::rpc::post(*state->sock, net::rpc::ReadyNote{});
}

/// While the worker has tasks outstanding, pings the service every
/// `interval` so the service-side liveness deadline can distinguish "busy
/// on a long task" from "hung". Parks silently (no events) while idle or
/// hung. Runs as a child process of the pilot so a pilot kill reaps it.
sim::Task<void> heartbeat_loop(std::shared_ptr<WorkerState> state,
                               sim::Duration interval) {
  for (;;) {
    if (state->closed) co_return;
    if (state->outstanding.empty()) {
      co_await state->work_gate->wait();
      continue;  // re-check closed/hung after waking
    }
    if (state->hung()) {
      co_await state->ctl->gate().wait();
      continue;
    }
    net::rpc::post(*state->sock, net::rpc::PingNote{});
    co_await sim::delay(interval);
  }
}

sim::Task<void> worker_main(const os::AppRegistry* apps, WorkerConfig config,
                            os::Env& env) {
  os::Machine& machine = *env.machine;
  os::Node& node = machine.node(env.node);

  // Expose a hang control to the chaos layer before doing anything else so
  // a fault plan can freeze this pilot at any point of its life.
  std::shared_ptr<WorkerHangControl> ctl;
  if (config.hang_registry) {
    ctl = std::make_shared<WorkerHangControl>(machine.engine(), env.node);
    config.hang_registry->controls.push_back(ctl);
  }

  // Stage files into node-local storage before taking work (§5 feature 2).
  {
    obs::ScopedSpan span(machine.tracer(), "worker.stage",
                         obs::track_node(env.node));
    for (const std::string& file : config.stage_files) {
      if (node.local_fs().exists(file)) continue;
      auto size = machine.shared_fs().size(file);
      if (!size) continue;  // tolerate missing staging entries
      co_await machine.shared_fs().read(file);
      co_await node.local_fs().write(file, *size);
    }
  }

  auto state = std::make_shared<WorkerState>();
  state->ctl = std::move(ctl);
  try {
    state->sock = co_await machine.network().connect(env.node, config.service);
  } catch (const net::ConnectError&) {
    co_return;  // service is gone; pilot exits quietly
  }
  net::rpc::post(*state->sock, net::rpc::RegisterReq{env.node, {}});
  net::rpc::post(*state->sock, net::rpc::ReadyNote{});

  os::Machine::Pid hb_pid = 0;
  if (config.heartbeat_interval > 0) {
    state->work_gate = std::make_unique<sim::Gate>(machine.engine());
    os::ExecOptions hb_opts;
    hb_opts.charge_fork = false;  // in-pilot thread of the wrapper script
    hb_pid = machine.exec(env.node, "jets-heartbeat",
                          heartbeat_loop(state, config.heartbeat_interval),
                          std::move(hb_opts));
  }

  // One channel per connection: a redial gets a fresh one on the new
  // socket (in-flight task wrappers keep reporting via state->sock, so
  // their dones follow the reconnect automatically).
  for (;;) {
    net::rpc::Channel chan(machine.engine(), state->sock);
    // A hung pilot's receive loop freezes at the dispatch point: bytes
    // keep landing in the socket inbox (the connection stays open — the
    // service sees silence, not EOF) but nothing is handled until release.
    chan.set_hang_gate([state]() -> sim::Gate* {
      return state->hung() ? &state->ctl->gate() : nullptr;
    });
    chan.on<net::rpc::TaskRun>([&, state](net::rpc::TaskRun&& req) {
      // The per-task wrapper cost plus binary load (node-local if staged).
      os::ExecOptions opts;
      opts.extra_startup = config.task_overhead;
      const std::string& prog = req.argv.at(0);
      if (node.local_fs().exists(prog) || machine.shared_fs().exists(prog)) {
        opts.binary = prog;
      }
      const std::string task_id = req.task_id;
      os::Machine::Pid pid = machine.exec(
          env.node, "task:" + task_id,
          task_wrapper(&machine, apps, env.node, std::move(req), state),
          std::move(opts));
      if (auto it = state->find(task_id); it != state->outstanding.end()) {
        it->pid = pid;  // an id re-issued by a restored service
      } else {
        state->outstanding.push_back(Outstanding{task_id, pid});
      }
      state->track_work();
      if (config.task_watchdog > 0) {
        machine.engine().call_in(
            config.task_watchdog,
            [state, task_id, pid, machine_ptr = &machine] {
              // The watchdog is part of the frozen wrapper script: while
              // hung it cannot fire (and it does not re-arm — on release
              // the task wrapper reports the task normally).
              if (state->hung()) return;
              auto it = state->find(task_id);
              if (it == state->outstanding.end() || it->pid != pid) return;
              machine_ptr->kill(pid);
              state->outstanding.erase(it);
              state->track_work();
              if (state->sock) {
                net::rpc::post(
                    *state->sock,
                    net::rpc::TaskDone{task_id, 124,
                                       net::rpc::TaskDone::Reason::kWatchdog});
                net::rpc::post(*state->sock, net::rpc::ReadyNote{});
              }
            });
      }
    });
    chan.on<net::rpc::KillReq>([&, state](net::rpc::KillReq&& kill) {
      auto it = state->find(kill.task_id);
      if (it == state->outstanding.end()) return;
      machine.kill(it->pid);
      state->outstanding.erase(it);
      state->track_work();
      net::rpc::post(*state->sock,
                     net::rpc::TaskDone{kill.task_id, 137,
                                        net::rpc::TaskDone::Reason::kKilled});
      net::rpc::post(*state->sock, net::rpc::ReadyNote{});
    });
    chan.on<net::rpc::StageReq>(
        // By value: the coroutine frame owns the request (see Channel::on).
        [&, state](net::rpc::StageReq req) -> sim::Task<void> {
          // Install through the node's CAS so repeat blobs dedup, and
          // report any evictions the install caused back on the ack — the
          // service's residency view depends on it.
          const net::StageHeader& h = req.header;
          std::vector<os::CasDigest> evicted;
          switch (h.source) {
            case net::StageHeader::Source::kWarm:
              // Zero-byte probe: the service believes this digest is
              // already resident. Normally just an LRU touch; on a miss (the
              // ack reporting the eviction is still in flight) fall back to
              // a pull from the service's shared store over the fabric.
              if (!node.cas().touch(h.digest)) {
                co_await sim::delay(machine.network().fabric().transfer_time(
                    config.service.node, env.node, h.bytes));
                evicted = co_await node.cas().put(h.digest, h.path, h.bytes);
              }
              break;
            case net::StageHeader::Source::kPeer:
              // Intra-group copy: the bytes cross peer->here, not
              // service->here — this message itself carried none, so charge
              // the fabric for the peer link before installing.
              co_await sim::delay(machine.network().fabric().transfer_time(
                  h.peer, env.node, h.bytes));
              evicted = co_await node.cas().put(h.digest, h.path, h.bytes);
              break;
            case net::StageHeader::Source::kPush:
              // The bytes arrived with this message (wire time already
              // charged by the socket); just install.
              evicted = co_await node.cas().put(h.digest, h.path, h.bytes);
              break;
          }
          net::rpc::post(*state->sock, net::rpc::StageAck(h.path, h.digest,
                                                          std::move(evicted)));
        });
    co_await chan.serve();
    // Service connection EOF'd. Without redial the pilot exits here (the
    // pre-recovery behavior); with it, retry the dial under linear
    // backoff — the service may be down for a restore — and re-register
    // carrying the outstanding-task inventory so the restored service
    // can reconcile this pilot with its checkpointed ghost.
    bool redialed = false;
    for (int attempt = 1; config.reconnect_backoff > 0 &&
                          attempt <= config.reconnect_attempts;
         ++attempt) {
      co_await sim::delay(attempt * config.reconnect_backoff);
      if (state->hung()) co_await state->ctl->gate().wait();
      try {
        state->sock =
            co_await machine.network().connect(env.node, config.service);
        redialed = true;
        break;
      } catch (const net::ConnectError&) {
        // nobody listening yet; keep backing off
      }
    }
    if (!redialed) break;  // gave up: pilot exits as before
    // The inventory (sorted task ids, deterministic). Tasks that finished
    // during the outage are simply absent — the service's reconciliation
    // treats a checkpointed-but-unannounced task as a lost done and fails
    // that attempt blamelessly.
    net::rpc::RegisterReq reg;
    reg.node = env.node;
    for (const Outstanding& o : state->outstanding) {
      reg.inventory.push_back(o.task_id);
    }
    std::sort(reg.inventory.begin(), reg.inventory.end());
    net::rpc::post(*state->sock, std::move(reg));
    // Only an idle pilot volunteers for work; a busy one re-enters the
    // pool through its normal done/ready cycle. In-flight task wrappers
    // report through state->sock, so their dones route to the new
    // connection automatically.
    if (state->outstanding.empty()) {
      net::rpc::post(*state->sock, net::rpc::ReadyNote{});
    }
  }

  // Natural exit (service closed the connection). A pilot *kill* reaps the
  // heartbeat via the process tree; here we must reap it ourselves.
  state->closed = true;
  if (state->work_gate) state->work_gate->open();
  if (hb_pid != 0) machine.kill(hb_pid);
}

}  // namespace

os::Program worker_program(const os::AppRegistry& apps, WorkerConfig config) {
  return [&apps, config](os::Env& env) -> sim::Task<void> {
    co_await worker_main(&apps, config, env);
  };
}

}  // namespace jets::core
