#include "pmi/hydra.hh"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <variant>

#include "net/rpc.hh"
#include "obs/tracer.hh"
#include "pmi/client.hh"

namespace jets::pmi {

namespace rpc = net::rpc;

namespace {

/// Shared between a proxy and its local rank bodies.
struct ProxyShared {
  int exit_code = 0;
};

/// hydra_pmi_proxy --control-addr <node> <port> --proxy-id <k>
struct ProxyArgs {
  net::Address control{};
  int proxy_id = -1;
};

/// A decimal field spelled exactly as std::to_string spells its value: no
/// sign, no leading zero, in range of T.
template <typename T>
std::optional<T> canonical_number(const std::string& s) {
  const auto v = rpc::parse_number<T>(s);
  if (!v || std::to_string(*v) != s) return std::nullopt;
  return v;
}

/// Parses the proxy command line, which must be exactly the form above, as
/// Mpiexec::proxy_commands writes it.
std::optional<ProxyArgs> parse_proxy_argv(const std::vector<std::string>& argv) {
  if (argv.size() != 6 || argv[1] != "--control-addr" ||
      argv[4] != "--proxy-id") {
    return std::nullopt;
  }
  const auto node = canonical_number<os::NodeId>(argv[2]);
  const auto port = canonical_number<net::Port>(argv[3]);
  const auto id = canonical_number<int>(argv[5]);
  if (!node || !port || !id || *id < 0) return std::nullopt;
  return ProxyArgs{net::Address{*node, *port}, *id};
}

/// Visitor from a set of lambdas.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

sim::Task<void> rank_body(os::Machine* machine, const os::AppRegistry* apps,
                          os::NodeId node, std::vector<std::string> argv,
                          std::map<std::string, std::string> vars,
                          net::Address control, int rank, int size,
                          std::shared_ptr<ProxyShared> shared) {
  os::Env env;
  env.machine = machine;
  env.node = node;
  env.argv = std::move(argv);
  env.vars = std::move(vars);
  env.vars["PMI_RANK"] = std::to_string(rank);
  env.vars["PMI_SIZE"] = std::to_string(size);
  try {
    auto client = co_await PmiClient::connect(*machine, node, control, rank, size);
    env.pmi = client.get();
    env.stdout_sink = client->socket();
    const os::Program& program = apps->lookup(env.argv.at(0));
    co_await program(env);
    client->finalize();
  } catch (...) {
    shared->exit_code = 1;
  }
}

}  // namespace

// --- Proxy program -----------------------------------------------------------

os::Program Mpiexec::proxy_program(const os::AppRegistry& apps) {
  return [&apps](os::Env& env) -> sim::Task<void> {
    const std::optional<ProxyArgs> args = parse_proxy_argv(env.argv);
    if (!args) throw std::invalid_argument("hydra_pmi_proxy: bad argv");

    net::SocketPtr sock =
        co_await env.machine->network().connect(env.node, args->control);
    rpc::post(*sock, rpc::ProxyHello{args->proxy_id});
    std::optional<net::Message> reply = co_await sock->recv();
    if (!reply) co_return;  // mpiexec gone
    auto exec = rpc::take<rpc::ProxyExec>(std::move(*reply));
    if (!exec.ok()) {
      throw std::invalid_argument("hydra_pmi_proxy: bad proxy.exec: " +
                                  rpc::to_string(exec.error()));
    }
    rpc::ProxyExec spec = std::move(exec).value();

    const int local = std::min(spec.ppn, spec.nprocs - spec.base);
    auto shared = std::make_shared<ProxyShared>();
    std::vector<os::Machine::Pid> pids;
    pids.reserve(static_cast<std::size_t>(std::max(local, 0)));
    for (int r = 0; r < local; ++r) {
      const int rank = spec.base + r;
      std::string name = spec.argv.at(0) + ":" + std::to_string(rank);
      // Each rank gets its own argv and vars; the last one takes the spec's.
      const bool last = r + 1 == local;
      pids.push_back(env.machine->exec(
          env.node, std::move(name),
          rank_body(env.machine, &apps, env.node,
                    last ? std::move(spec.argv) : spec.argv,
                    last ? std::move(spec.vars) : spec.vars, args->control,
                    rank, spec.nprocs, shared),
          os::ExecOptions(spec.user_binary)));
    }
    for (auto pid : pids) co_await env.machine->wait(pid);
    rpc::post(*sock, rpc::ProxyExit{args->proxy_id, shared->exit_code});
    // Destructor closes the socket; mpiexec sees exit then EOF.
  };
}

// --- Mpiexec -------------------------------------------------------------------

Mpiexec::Mpiexec(os::Machine& machine, const os::AppRegistry& apps,
                 os::NodeId host, MpiexecSpec spec)
    : machine_(&machine), apps_(&apps), host_(host), spec_(std::move(spec)),
      kvs_(machine.engine()) {
  if (spec_.nprocs < 1 || spec_.ranks_per_proxy < 1) {
    throw std::invalid_argument("mpiexec: nprocs and ppn must be >= 1");
  }
  if (spec_.user_argv.empty()) {
    throw std::invalid_argument("mpiexec: empty user command");
  }
  if (spec_.user_binary.empty()) spec_.user_binary = spec_.user_argv.front();
  rank_socks_.resize(static_cast<std::size_t>(spec_.nprocs));
  done_gate_ = std::make_unique<sim::Gate>(machine.engine());
  setup_sem_ = std::make_unique<sim::Semaphore>(machine.engine(), 1);
}

Mpiexec::~Mpiexec() {
  close_spans();  // a torn-down mpiexec must not leave spans dangling open
  launch_timer_.cancel();  // callback captures `this`
  if (control_actor_ != 0) machine_->engine().kill(control_actor_);
  for (sim::ActorId id : handler_actors_) machine_->engine().kill(id);
}

int Mpiexec::proxy_count() const {
  return (spec_.nprocs + spec_.ranks_per_proxy - 1) / spec_.ranks_per_proxy;
}

void Mpiexec::start() {
  if (started_) return;
  started_ = true;
  control_addr_ = net::Address{host_, machine_->allocate_port()};
  listener_.emplace(machine_->network(), control_addr_);
  control_actor_ = machine_->engine().spawn("mpiexec", control_service());
  if (obs::Tracer* tr = machine_->tracer()) {
    span_mpx_ = tr->begin("mpiexec", spec_.trace_track, spec_.trace_parent);
    tr->attr(span_mpx_, "nprocs", static_cast<std::int64_t>(spec_.nprocs));
    tr->attr(span_mpx_, "proxies", static_cast<std::int64_t>(proxy_count()));
    span_launch_ = tr->begin("mpiexec.launch", spec_.trace_track, span_mpx_);
  }
  if (spec_.launch_timeout > 0) {
    launch_timer_ = machine_->engine().call_in(spec_.launch_timeout, [this] {
      if (launched_ || done()) return;
      fail(MpiexecFailKind::kLaunchTimeout,
           "gang not wired up within launch deadline (" +
               std::to_string(proxies_wired_) + "/" +
               std::to_string(proxy_count()) + " proxies, " +
               std::to_string(ranks_inited_) + "/" +
               std::to_string(spec_.nprocs) + " ranks)");
    });
  }
}

std::vector<std::vector<std::string>> Mpiexec::proxy_commands() const {
  if (!started_) throw std::logic_error("mpiexec: start() before proxy_commands()");
  std::vector<std::vector<std::string>> cmds;
  cmds.reserve(static_cast<std::size_t>(proxy_count()));
  for (int k = 0; k < proxy_count(); ++k) {
    cmds.push_back({kProxyBinary, "--control-addr",
                    std::to_string(control_addr_.node),
                    std::to_string(control_addr_.port), "--proxy-id",
                    std::to_string(k)});
  }
  return cmds;
}

void Mpiexec::launch_via_ssh(const std::vector<os::NodeId>& hosts,
                             sim::Duration ssh_cost) {
  if (!started_) throw std::logic_error("mpiexec: start() before launch");
  if (hosts.size() < static_cast<std::size_t>(proxy_count())) {
    throw std::invalid_argument("mpiexec: not enough hosts for proxies");
  }
  auto cmds = proxy_commands();
  machine_->engine().spawn(
      "mpiexec-ssh-launcher",
      [](os::Machine* m, const os::AppRegistry* apps,
         std::vector<os::NodeId> hosts, sim::Duration cost,
         std::vector<std::vector<std::string>> cmds) -> sim::Task<void> {
        for (std::size_t k = 0; k < cmds.size(); ++k) {
          // ssh connection setup + auth is paid per host, sequentially —
          // the bottleneck JETS's persistent workers eliminate.
          co_await sim::delay(cost);
          os::run_command(*m, *apps, hosts[k], cmds[k], {},
                          os::ExecOptions(kProxyBinary));
        }
      }(machine_, apps_, hosts, ssh_cost, std::move(cmds)));
}

sim::Task<int> Mpiexec::wait() {
  co_await done_gate_->wait();
  co_return failures_ == 0 ? 0 : 1;
}

void Mpiexec::note_proxy_done(int code) {
  ++proxies_done_;
  if (code != 0) {
    ++failures_;
    if (fail_kind_ == MpiexecFailKind::kNone) {
      fail_kind_ = MpiexecFailKind::kExit;
      failure_reason_ = "proxy reported nonzero rank exit";
    }
  }
  if (proxies_done_ >= proxy_count()) {
    launch_timer_.cancel();
    close_spans();
    done_gate_->open();
  }
}

void Mpiexec::note_launch_progress() {
  if (launched_) return;
  if (proxies_wired_ >= proxy_count() && ranks_inited_ >= spec_.nprocs) {
    launched_ = true;
    launch_timer_.cancel();
    if (obs::Tracer* tr = machine_->tracer()) {
      tr->end_and_clear(span_launch_);
      span_run_ = tr->begin("mpiexec.run", spec_.trace_track, span_mpx_);
    }
  }
}

void Mpiexec::abort(const std::string& why) {
  if (!done()) fail(MpiexecFailKind::kAborted, why);
}

void Mpiexec::fail(MpiexecFailKind kind, const std::string& why) {
  ++failures_;
  if (fail_kind_ == MpiexecFailKind::kNone) {
    fail_kind_ = kind;
    failure_reason_ = why;
  }
  launch_timer_.cancel();
  close_spans();
  done_gate_->open();  // surface the failure immediately; JETS cleans up
}

void Mpiexec::close_spans() {
  obs::Tracer* tr = machine_->tracer();
  if (!tr) return;
  tr->end_and_clear(span_run_);
  tr->end_and_clear(span_launch_);
  tr->end_and_clear(span_mpx_);
}

sim::Task<void> Mpiexec::control_service() {
  for (;;) {
    net::SocketPtr sock = co_await listener_->accept();
    if (!sock) co_return;  // listener closed
    handler_actors_.push_back(machine_->engine().spawn(
        "mpiexec-conn", handle_connection(std::move(sock))));
  }
}

sim::Task<void> Mpiexec::handle_connection(net::SocketPtr sock) {
  bool is_proxy = false;
  bool proxy_reported = false;
  bool rank_finalized = false;
  int rank = -1;
  for (;;) {
    std::optional<net::Message> m = co_await sock->recv();
    if (!m) break;  // EOF
    // A malformed frame, an unknown verb, or one this connection may not
    // send here (a proxy that is not one, a rank out of range or already
    // inited) is ignored: the job's fate is decided by its real peers.
    auto frame =
        rpc::take_any<rpc::ProxyHello, rpc::ProxyExit, rpc::PmiInit,
                      rpc::PmiPut, rpc::PmiGet, rpc::PmiBarrier,
                      rpc::PmiFinalize, rpc::StdoutNote>(std::move(*m));
    // The two verbs that can wait come first: a proxy's serialized
    // bootstrap, and a lookup of a key no rank has published yet.
    if (auto* hello = std::get_if<rpc::ProxyHello>(&frame)) {
      const int proxy_id = hello->proxy_id;
      if (is_proxy || rank >= 0 || proxy_id < 0 || proxy_id >= proxy_count()) {
        continue;
      }
      is_proxy = true;
      // Bootstrap handling is serialized within one mpiexec and charges
      // the per-proxy setup cost (see MpiexecSpec::proxy_setup_cost).
      {
        obs::ScopedSpan setup(machine_->tracer(), "mpiexec.proxy_setup",
                              spec_.trace_track, span_mpx_);
        setup.attr("proxy", static_cast<std::int64_t>(proxy_id));
        sim::Permit permit = co_await sim::Permit::acquire(*setup_sem_);
        co_await sim::delay(spec_.proxy_setup_cost);
      }
      rpc::post(*sock, rpc::ProxyExec(spec_.nprocs, spec_.ranks_per_proxy,
                                      proxy_id * spec_.ranks_per_proxy,
                                      spec_.user_binary, spec_.user_argv,
                                      spec_.user_vars));
      ++proxies_wired_;
      note_launch_progress();
    } else if (auto* get = std::get_if<rpc::PmiGet>(&frame)) {
      std::string value;
      if (const std::string* known = kvs_.find(get->key)) {
        value = *known;
      } else {
        value = co_await kvs_.get(get->key);
      }
      rpc::post(*sock, rpc::PmiValue(std::move(get->key), std::move(value)));
    } else {
      std::visit(
          Overloaded{
              [&](rpc::ProxyExit& exit) {
                if (!is_proxy || proxy_reported) return;
                proxy_reported = true;
                note_proxy_done(exit.status);
              },
              [&](rpc::PmiInit& init) {
                const int r = init.rank;
                if (is_proxy || rank >= 0 || r < 0 || r >= spec_.nprocs) return;
                net::SocketPtr& slot = rank_socks_[static_cast<std::size_t>(r)];
                if (slot) return;  // a second init for the same rank
                rank = r;
                slot = sock;
                ++ranks_inited_;
                note_launch_progress();
              },
              [&](rpc::PmiPut& put) {
                kvs_.put(std::move(put.key), std::move(put.value));
              },
              [&](rpc::PmiBarrier&) {
                if (rank < 0) return;
                if (++barrier_waiting_ >= spec_.nprocs) {
                  barrier_waiting_ = 0;
                  for (auto& rs : rank_socks_) {
                    if (rs) rpc::post(*rs, rpc::PmiBarrierOut{});
                  }
                }
              },
              [&](rpc::PmiFinalize&) { rank_finalized = true; },
              [&](rpc::StdoutNote& out) { stdout_bytes_ += out.payload; },
              [](auto&) {},  // DecodeError; ProxyHello and PmiGet are above
          },
          frame);
    }
  }
  // Connection gone: decide whether that was orderly.
  if (is_proxy && !proxy_reported) {
    fail(MpiexecFailKind::kDisconnect, "proxy disconnected before exit report");
  } else if (rank >= 0 && !rank_finalized && !done()) {
    fail(MpiexecFailKind::kDisconnect,
         "rank " + std::to_string(rank) + " disconnected before finalize");
  }
  if (rank >= 0) rank_socks_[static_cast<std::size_t>(rank)].reset();
}

}  // namespace jets::pmi
