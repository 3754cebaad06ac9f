// Shared fixture pieces for PMI/MPI/JETS integration tests: a machine with
// an app registry, the Hydra proxy installed, and binaries present on the
// shared filesystem.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "os/machine.hh"
#include "os/program.hh"
#include "pmi/hydra.hh"
#include "sim/sim.hh"

namespace jets::test {

struct TestBed {
  sim::Engine engine;
  os::Machine machine;
  os::AppRegistry apps;

  explicit TestBed(os::MachineSpec spec) : machine(engine, std::move(spec)) {
    apps.install(pmi::kProxyBinary, pmi::Mpiexec::proxy_program(apps));
    machine.shared_fs().put(pmi::kProxyBinary, 2'000'000);
  }

  /// Installs an app and registers its binary (size in bytes) on GPFS.
  void install_app(const std::string& name, os::Program program,
                   std::uint64_t binary_bytes = 5'000'000) {
    apps.install(name, std::move(program));
    machine.shared_fs().put(name, binary_bytes);
  }

  /// Runs one proxy command line on `node` as a worker would.
  void run_proxy(os::NodeId node, const std::vector<std::string>& cmd) {
    os::run_command(machine, apps, node, cmd, {},
                    os::ExecOptions(pmi::kProxyBinary));
  }

  /// Starts an mpiexec (manual launcher) and plays scheduler: proxy k runs
  /// on hosts[k]. Returns the mpiexec for wait()/inspection.
  std::unique_ptr<pmi::Mpiexec> launch_manual(
      pmi::MpiexecSpec spec, const std::vector<os::NodeId>& hosts) {
    auto mpx = std::make_unique<pmi::Mpiexec>(machine, apps,
                                              machine.login_node(), spec);
    mpx->start();
    auto cmds = mpx->proxy_commands();
    for (std::size_t k = 0; k < cmds.size(); ++k) {
      run_proxy(hosts.at(k), cmds[k]);
    }
    return mpx;
  }

  /// Blocks the test until `mpx` finishes; returns its exit status.
  int run_to_completion(pmi::Mpiexec& mpx) {
    int rc = -1;
    engine.spawn("test-waiter", [](pmi::Mpiexec& mpx, int& rc) -> sim::Task<void> {
      rc = co_await mpx.wait();
    }(mpx, rc));
    engine.run();
    return rc;
  }
};

}  // namespace jets::test
