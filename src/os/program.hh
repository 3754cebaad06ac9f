// Simulated user programs.
//
// JETS deals in *command lines*: its input files, worker protocol, and Hydra
// proxy specs all carry argv vectors. In the simulation, argv[0] is resolved
// through an AppRegistry to a C++ coroutine — the moral equivalent of $PATH
// + exec. A Program receives an Env describing where it runs and with what
// arguments/environment, exactly the information a real exec'd process gets.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/socket.hh"
#include "os/machine.hh"
#include "sim/task.hh"

namespace jets::pmi {
class PmiClient;  // rank-side process-management interface (pmi/client.hh)
}

namespace jets::os {

/// Everything a simulated process sees at startup: its node, argv, and
/// environment. Processes launched by a Hydra proxy additionally get a PMI
/// client (how MPICH wires ranks together) and a stdout sink socket (the
/// paper routes application stdout proxy -> mpiexec -> JETS, §6.1.6).
struct Env {
  Machine* machine = nullptr;
  NodeId node = 0;
  std::vector<std::string> argv;
  std::map<std::string, std::string> vars;

  /// Set only for processes bootstrapped by a Hydra proxy.
  pmi::PmiClient* pmi = nullptr;
  /// Where stdout bytes go (may be null: discarded).
  net::SocketPtr stdout_sink;

  const std::string& var(const std::string& key) const {
    auto it = vars.find(key);
    if (it == vars.end()) throw std::out_of_range("missing env var: " + key);
    return it->second;
  }
  std::string var_or(const std::string& key, std::string fallback) const {
    auto it = vars.find(key);
    return it == vars.end() ? std::move(fallback) : it->second;
  }

  /// Emits `bytes` of stdout (counts wire time on the sink if present).
  void write_stdout(std::size_t bytes) const;
};

/// A runnable program body. The Env reference stays valid for the lifetime
/// of the coroutine (owned by the launching wrapper's frame).
using Program = std::function<sim::Task<void>(Env&)>;

/// Maps executable names (argv[0]) to program bodies — the simulated $PATH.
class AppRegistry {
 public:
  void install(std::string name, Program program) {
    apps_[std::move(name)] = std::move(program);
  }

  bool contains(const std::string& name) const { return apps_.contains(name); }

  const Program& lookup(const std::string& name) const {
    auto it = apps_.find(name);
    if (it == apps_.end()) {
      throw std::invalid_argument("exec: command not found: " + name);
    }
    return it->second;
  }

  std::size_t size() const { return apps_.size(); }

 private:
  std::map<std::string, Program> apps_;
};

namespace detail {
inline sim::Task<void> command_body(Machine* machine, const AppRegistry* apps,
                                    NodeId node, std::vector<std::string> argv,
                                    std::map<std::string, std::string> vars) {
  Env env;
  env.machine = machine;
  env.node = node;
  env.argv = std::move(argv);
  env.vars = std::move(vars);
  const Program& program = apps->lookup(env.argv.at(0));
  co_await program(env);
}
}  // namespace detail

/// exec()s a command line on a node: resolves argv[0] through the registry
/// and runs it with a fresh Env. The standard way every launcher (ssh,
/// Cobalt scripts, JETS workers, Hydra proxies) starts programs.
inline Machine::Pid run_command(Machine& machine, const AppRegistry& apps,
                                NodeId node, std::vector<std::string> argv,
                                std::map<std::string, std::string> vars = {},
                                ExecOptions opts = {}) {
  std::string name = argv.at(0);
  return machine.exec(node, std::move(name),
                      detail::command_body(&machine, &apps, node,
                                           std::move(argv), std::move(vars)),
                      std::move(opts));
}

}  // namespace jets::os
