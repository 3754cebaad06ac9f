// Tests for the PMI key-value space and the Hydra mpiexec/proxy machinery,
// including the JETS-contributed launcher=manual bootstrap.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "net/rpc.hh"
#include "pmi/client.hh"
#include "pmi/hydra.hh"
#include "pmi/kvs.hh"
#include "testbed.hh"

namespace jets::pmi {
namespace {

using os::Env;
using sim::Task;
using test::TestBed;

TEST(KeyValueSpace, GetBlocksUntilPut) {
  sim::Engine e;
  KeyValueSpace kvs(e);
  std::string got;
  sim::Time got_at = -1;
  e.spawn("getter", [](sim::Engine& e, KeyValueSpace& kvs, std::string& got,
                       sim::Time& at) -> Task<void> {
    got = co_await kvs.get("card.0");
    at = e.now();
  }(e, kvs, got, got_at));
  e.call_at(sim::seconds(2), [&] { kvs.put("card.0", "node:port"); });
  e.run();
  EXPECT_EQ(got, "node:port");
  EXPECT_EQ(got_at, sim::seconds(2));
}

TEST(KeyValueSpace, ImmediateGetWhenPresent) {
  sim::Engine e;
  KeyValueSpace kvs(e);
  kvs.put("k", "v");
  EXPECT_TRUE(kvs.contains("k"));
  std::string got;
  e.spawn("getter", [](KeyValueSpace& kvs, std::string& got) -> Task<void> {
    got = co_await kvs.get("k");
  }(kvs, got));
  e.run();
  EXPECT_EQ(got, "v");
}

TEST(Mpiexec, ProxyCommandsFollowManualLauncherShape) {
  TestBed bed(os::Machine::breadboard(8));
  MpiexecSpec spec;
  spec.user_argv = {"noop"};
  spec.nprocs = 6;
  spec.ranks_per_proxy = 2;
  Mpiexec mpx(bed.machine, bed.apps, bed.machine.login_node(), spec);
  mpx.start();
  auto cmds = mpx.proxy_commands();
  ASSERT_EQ(cmds.size(), 3u);  // ceil(6/2)
  for (std::size_t k = 0; k < cmds.size(); ++k) {
    EXPECT_EQ(cmds[k][0], kProxyBinary);
    EXPECT_EQ(cmds[k][1], "--control-addr");
    EXPECT_EQ(cmds[k][4], "--proxy-id");
    EXPECT_EQ(cmds[k][5], std::to_string(k));
  }
}

TEST(Mpiexec, RejectsBadSpecs) {
  TestBed bed(os::Machine::breadboard(4));
  MpiexecSpec bad;
  bad.user_argv = {};
  bad.nprocs = 2;
  EXPECT_THROW(Mpiexec(bed.machine, bed.apps, 0, bad), std::invalid_argument);
  bad.user_argv = {"x"};
  bad.nprocs = 0;
  EXPECT_THROW(Mpiexec(bed.machine, bed.apps, 0, bad), std::invalid_argument);
}

TEST(Mpiexec, ManualLaunchRunsAllRanksToCompletion) {
  TestBed bed(os::Machine::breadboard(8));
  int ran = 0;
  bed.install_app("count_app", [&ran](Env& env) -> Task<void> {
    EXPECT_FALSE(env.var("PMI_RANK").empty());
    EXPECT_EQ(env.var("PMI_SIZE"), "4");
    ++ran;
    co_return;
  });
  MpiexecSpec spec;
  spec.user_argv = {"count_app"};
  spec.nprocs = 4;
  auto mpx = bed.launch_manual(spec, {0, 1, 2, 3});
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_EQ(ran, 4);
}

TEST(Mpiexec, MultipleRanksPerProxyShareTheNode) {
  TestBed bed(os::Machine::breadboard(4));
  std::vector<os::NodeId> rank_nodes;
  bed.install_app("where_app", [&rank_nodes](Env& env) -> Task<void> {
    rank_nodes.push_back(env.node);
    co_return;
  });
  MpiexecSpec spec;
  spec.user_argv = {"where_app"};
  spec.nprocs = 8;
  spec.ranks_per_proxy = 4;
  auto mpx = bed.launch_manual(spec, {0, 1});
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  ASSERT_EQ(rank_nodes.size(), 8u);
  int on0 = 0, on1 = 0;
  for (auto n : rank_nodes) (n == 0 ? on0 : on1)++;
  EXPECT_EQ(on0, 4);
  EXPECT_EQ(on1, 4);
}

TEST(Mpiexec, UserEnvironmentReachesRanks) {
  TestBed bed(os::Machine::breadboard(4));
  std::string seen;
  bed.install_app("env_app", [&seen](Env& env) -> Task<void> {
    seen = env.var("JETS_JOB_ID");
    co_return;
  });
  MpiexecSpec spec;
  spec.user_argv = {"env_app"};
  spec.nprocs = 1;
  spec.user_vars["JETS_JOB_ID"] = "job-42";
  auto mpx = bed.launch_manual(spec, {0});
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_EQ(seen, "job-42");
}

TEST(Mpiexec, SshLauncherBaselineWorksButPaysPerHostCost) {
  TestBed bed(os::Machine::breadboard(8));
  int ran = 0;
  bed.install_app("noop", [&ran](Env&) -> Task<void> {
    ++ran;
    co_return;
  });
  MpiexecSpec spec;
  spec.user_argv = {"noop"};
  spec.nprocs = 4;
  Mpiexec mpx(bed.machine, bed.apps, bed.machine.login_node(), spec);
  mpx.start();
  mpx.launch_via_ssh({0, 1, 2, 3}, sim::milliseconds(300));
  EXPECT_EQ(bed.run_to_completion(mpx), 0);
  EXPECT_EQ(ran, 4);
  // 4 sequential ssh setups at 300 ms each bound the job from below.
  EXPECT_GE(bed.engine.now(), sim::milliseconds(1200));
}

TEST(Mpiexec, PmiPutGetAcrossRanks) {
  TestBed bed(os::Machine::breadboard(4));
  std::string fetched;
  bed.install_app("kvs_app", [&fetched](Env& env) -> Task<void> {
    const int rank = std::stoi(env.var("PMI_RANK"));
    if (rank == 0) {
      env.pmi->put("greeting", "hello-from-0");
    } else {
      fetched = co_await env.pmi->get("greeting");
    }
    co_await env.pmi->barrier();
  });
  MpiexecSpec spec;
  spec.user_argv = {"kvs_app"};
  spec.nprocs = 2;
  auto mpx = bed.launch_manual(spec, {0, 1});
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_EQ(fetched, "hello-from-0");
}

TEST(Mpiexec, PmiBarrierSynchronizesRanks) {
  TestBed bed(os::Machine::breadboard(4));
  sim::Time rank0_after = -1;
  bed.install_app("bar_app", [&](Env& env) -> Task<void> {
    const int rank = std::stoi(env.var("PMI_RANK"));
    if (rank == 1) co_await sim::delay(sim::seconds(5));  // straggler
    co_await env.pmi->barrier();
    if (rank == 0) rank0_after = env.machine->engine().now();
  });
  MpiexecSpec spec;
  spec.user_argv = {"bar_app"};
  spec.nprocs = 2;
  auto mpx = bed.launch_manual(spec, {0, 1});
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_GE(rank0_after, sim::seconds(5));  // rank 0 waited for the straggler
}

TEST(Mpiexec, StdoutIsRoutedAndCounted) {
  TestBed bed(os::Machine::breadboard(4));
  bed.install_app("chatty", [](Env& env) -> Task<void> {
    env.write_stdout(11'000);  // ~11 KB like a NAMD run (§6.1.6)
    co_return;
  });
  MpiexecSpec spec;
  spec.user_argv = {"chatty"};
  spec.nprocs = 3;
  auto mpx = bed.launch_manual(spec, {0, 1, 2});
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_EQ(mpx->stdout_bytes(), 33'000u);
}

TEST(Mpiexec, HostileControlFramesAreIgnored) {
  // Once the ranks are wired and sleeping, a rogue connection to mpiexec's
  // control port sends frames that are malformed, out of range, or not
  // its to send. `pmi.init ["x"]` used to throw std::invalid_argument out
  // of Engine::run(). Now each frame is ignored and the job ends clean.
  TestBed bed(os::Machine::breadboard(4));
  int finished = 0;
  bed.install_app("sleeper", [&finished](Env& env) -> Task<void> {
    co_await env.pmi->barrier();
    co_await sim::delay(sim::seconds(2));
    co_await env.pmi->barrier();
    ++finished;
  });
  MpiexecSpec spec;
  spec.user_argv = {"sleeper"};
  spec.nprocs = 2;
  auto mpx = bed.launch_manual(spec, {0, 1});
  bed.engine.spawn("rogue", [](os::Machine& m, net::Address control)
                                -> Task<void> {
    co_await sim::delay(sim::seconds(1));
    net::SocketPtr s = co_await m.network().connect(3, control);
    const std::vector<net::Message> junk = {
        net::Message("pmi.init", {"x"}),
        net::Message("pmi.init", {"-1"}),
        net::Message("pmi.init", {"2"}),
        net::Message("pmi.init", {"0"}),         // rank 0 is already inited
        net::Message("proxy.exit", {"0", "1"}),  // not a proxy
        net::Message("proxy.hello", {"zz"}),
        net::Message("proxy.exit", {"0"}),
        net::Message("pmi.barrier_in", {"q"}),
        net::Message("pmi.barrier_in", {"0"}),  // not an inited rank
        net::Message("pmi.put", {"k"}),
        net::Message("pmi.get"),
        net::Message("stdout", {"x"}),
        net::Message("no.such.verb", {"1"}),
        *net::rpc::frame(net::rpc::MpiMsg(0, 0, 1.0, 8)),
    };
    for (const net::Message& m : junk) s->send(m);
    net::SocketPtr proxy = co_await m.network().connect(3, control);
    proxy->send(net::Message("proxy.hello", {"5"}));  // no such proxy
  }(bed.machine, mpx->control_address()));
  int rc = -1;
  EXPECT_NO_THROW(rc = bed.run_to_completion(*mpx));
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(mpx->fail_kind(), MpiexecFailKind::kNone);
  EXPECT_EQ(finished, 2);
}

/// Runs the proxy program with `argv` as the JETS worker's task wrapper
/// does, and returns the task status it would report: 0 if it returned, 1
/// if it threw, -1 if it has not finished when the engine runs dry.
int proxy_status(TestBed& bed, std::vector<std::string> argv) {
  int status = -1;
  bed.engine.spawn("task", [](TestBed& bed, std::vector<std::string> argv,
                              int& status) -> Task<void> {
    Env env;
    env.machine = &bed.machine;
    env.node = 1;
    env.argv = std::move(argv);
    try {
      co_await bed.apps.lookup(kProxyBinary)(env);
      status = 0;
    } catch (...) {
      status = 1;
    }
  }(bed, std::move(argv), status));
  bed.engine.run();
  return status;
}

TEST(HydraProxy, BadArgvGivesTaskStatusOne) {
  // A live mpiexec listens at the control address, so a proxy that
  // misread its argv would dial it and run. `--proxy-id 1x` used to
  // parse as 1, and a port of 2^32 + p to p through a narrowing cast.
  TestBed bed(os::Machine::breadboard(4));
  bed.install_app("quiet", [](Env&) -> Task<void> { co_return; });
  MpiexecSpec spec;
  spec.user_argv = {"quiet"};
  spec.nprocs = 2;
  Mpiexec mpx(bed.machine, bed.apps, bed.machine.login_node(), spec);
  mpx.start();
  const std::string node = std::to_string(mpx.control_address().node);
  const std::string port = std::to_string(mpx.control_address().port);
  const std::string wrapped_port =
      std::to_string((std::uint64_t{1} << 32) + mpx.control_address().port);
  const std::vector<std::vector<std::string>> bad = {
      {kProxyBinary, "--control-addr", node, port, "--proxy-id", "1x"},
      {kProxyBinary, "--control-addr", node, port, "--proxy-id", "-1"},
      {kProxyBinary, "--control-addr", node, port, "--proxy-id"},
      {kProxyBinary, "--control-addr", node, wrapped_port, "--proxy-id", "0"},
      {kProxyBinary, "--control-addr", node + "x", port, "--proxy-id", "0"},
      {kProxyBinary, "--control-addr", node, " " + port, "--proxy-id", "0"},
      {kProxyBinary, "--control-addr", node, "--proxy-id", "0"},
      {kProxyBinary, "--proxy-id", "0"},
      {kProxyBinary, "--control-addr", node, port, "--proxy-id", "0", "-v"},
      // Non-canonical spellings HydraProxyFuzz found accepted.
      {kProxyBinary, "--control-addr", node, port, "--proxy-id", "00"},
      {kProxyBinary, "--control-addr", node, port, "--proxy-id", "-0"},
      {kProxyBinary, "--control-addr", "0" + node, port, "--proxy-id", "0"},
      {kProxyBinary, "--control-addr", node, "0" + port, "--proxy-id", "0"},
      {kProxyBinary, "--proxy-id", "0", "--control-addr", node, port},
      {kProxyBinary, "--control-addr", node, port, "--control-addr", node,
       port, "--proxy-id", "0"},
      {kProxyBinary, "--control-addr", node, port, "--proxy-id", "0",
       "--proxy-id", "0"},
  };
  for (const auto& argv : bad) {
    EXPECT_EQ(proxy_status(bed, argv), 1) << argv.back();
  }
  EXPECT_FALSE(mpx.done());
  // The well-formed command lines still run the job.
  for (const auto& cmd : mpx.proxy_commands()) {
    EXPECT_EQ(proxy_status(bed, cmd), 0);
  }
  EXPECT_TRUE(mpx.done());
  EXPECT_EQ(mpx.fail_kind(), MpiexecFailKind::kNone);
}

/// The one argv shape Mpiexec::proxy_commands writes after the binary:
/// "--control-addr <node> <port> --proxy-id <k>", each number in range of
/// its field and spelled exactly as std::to_string spells it.
bool canonical_proxy_argv(const std::vector<std::string>& argv) {
  const auto spelled = [](const std::string& s, auto value) {
    return value.has_value() && std::to_string(*value) == s;
  };
  return argv.size() == 6 && argv[1] == "--control-addr" &&
         argv[4] == "--proxy-id" &&
         spelled(argv[2], net::rpc::parse_number<os::NodeId>(argv[2])) &&
         spelled(argv[3], net::rpc::parse_number<net::Port>(argv[3])) &&
         spelled(argv[5], net::rpc::parse_number<int>(argv[5])) &&
         argv[5][0] != '-';
}

TEST(HydraProxyFuzz, OnlyTheCanonicalArgvRuns) {
  // As in BadArgvGivesTaskStatusOne, a live mpiexec listens at the control
  // address, so a proxy that misread its argv would dial it and run.
  // Random argvs, and the canonical one with a token replaced, inserted or
  // dropped or its flag groups reordered or repeated: Engine::run() never
  // throws, and every argv but the canonical one is refused (status 1).
  TestBed bed(os::Machine::breadboard(4));
  bed.install_app("quiet", [](Env&) -> Task<void> { co_return; });
  MpiexecSpec spec;
  spec.user_argv = {"quiet"};
  spec.nprocs = 2;
  Mpiexec mpx(bed.machine, bed.apps, bed.machine.login_node(), spec);
  mpx.start();
  const std::string node = std::to_string(mpx.control_address().node);
  const std::string port = std::to_string(mpx.control_address().port);
  const std::vector<std::string> tokens = {
      "--control-addr", "--proxy-id", "-v", "--", "", node, port, "0", "1",
      "7", "00", "-0", "+0", " 0", "0 ", "01", "1x", "-1", node + "x",
      "0" + node, "0" + port, "+" + port,
      std::to_string((std::uint64_t{1} << 32) + mpx.control_address().port),
      "4294967295", "2147483647", "2147483648", "-2147483648",
      "99999999999999999999", "0x10", "--control-addr=" + node,
      std::string("\0", 1), std::string(100, '9')};
  std::mt19937 rng(0x48594452u);  // fixed seed: failures must reproduce
  std::uniform_int_distribution<std::size_t> token(0, tokens.size() - 1);
  const auto check = [&bed](const std::vector<std::string>& argv) {
    std::string text;
    for (const std::string& a : argv) text += " '" + a + "'";
    int status = -1;
    EXPECT_NO_THROW(status = proxy_status(bed, argv)) << text;
    if (!canonical_proxy_argv(argv)) {
      EXPECT_EQ(status, 1) << text;
    }
  };
  for (int i = 0; i < 400; ++i) {
    std::vector<std::string> argv = {kProxyBinary};
    const std::size_t n = rng() % 9;
    for (std::size_t a = 0; a < n; ++a) argv.push_back(tokens[token(rng)]);
    check(argv);
  }
  const std::vector<std::string> canon = {
      kProxyBinary, "--control-addr", node, port, "--proxy-id", "0"};
  for (std::size_t at = 1; at <= canon.size(); ++at) {
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<std::string> argv = canon;
      const auto pos = argv.begin() + static_cast<std::ptrdiff_t>(at);
      if (trial % 3 == 0 || at == argv.size()) {
        argv.insert(pos, tokens[token(rng)]);
      } else if (trial % 3 == 1) {
        argv.erase(pos);
      } else {
        *pos = tokens[token(rng)];
      }
      check(argv);
    }
  }
  check({kProxyBinary, "--proxy-id", "0", "--control-addr", node, port});
  check({kProxyBinary, "--control-addr", node, port, "--control-addr", node,
         port, "--proxy-id", "0"});
  check({kProxyBinary, "--control-addr", node, port, "--proxy-id", "0",
         "--proxy-id", "0"});
}

TEST(HydraProxy, MalformedExecSpecGivesTaskStatusOne) {
  // A control peer whose proxy.exec carries a user var without '=' (the
  // proxy used to drop it silently) or a non-numeric rank count.
  TestBed bed(os::Machine::breadboard(2));
  auto listener = bed.machine.network().listen({0, 4000});
  bed.engine.spawn("fake-mpiexec", [](net::Listener& l) -> Task<void> {
    const std::vector<std::vector<std::string>> specs = {
        {"1", "1", "0", "app", "1", "app", "NOEQ"},
        {"one", "1", "0", "app", "1", "app"},
    };
    for (const auto& args : specs) {
      net::SocketPtr s = co_await l.accept();
      (void)co_await s->recv();  // proxy.hello
      s->send(net::Message("proxy.exec", args));
    }
  }(*listener));
  const std::vector<std::string> cmd = {kProxyBinary, "--control-addr", "0",
                                        "4000", "--proxy-id", "0"};
  EXPECT_EQ(proxy_status(bed, cmd), 1);
  EXPECT_EQ(proxy_status(bed, cmd), 1);
}

TEST(Mpiexec, DeadProxyIsReportedAsFailure) {
  TestBed bed(os::Machine::breadboard(4));
  bed.install_app("sleepy", [](Env&) -> Task<void> {
    co_await sim::delay(sim::seconds(50));
  });
  MpiexecSpec spec;
  spec.user_argv = {"sleepy"};
  spec.nprocs = 2;
  auto mpx = std::make_unique<Mpiexec>(bed.machine, bed.apps,
                                       bed.machine.login_node(), spec);
  mpx->start();
  auto cmds = mpx->proxy_commands();
  // Run proxies as tracked processes so we can kill one (a "worker fault").
  std::vector<os::Machine::Pid> pids;
  for (std::size_t k = 0; k < cmds.size(); ++k) {
    os::ExecOptions opts;
    opts.binary = kProxyBinary;
    pids.push_back(os::run_command(bed.machine, bed.apps,
                                   static_cast<os::NodeId>(k), cmds[k], {},
                                   std::move(opts)));
  }
  bed.engine.call_at(sim::seconds(2), [&] { bed.machine.kill(pids[1]); });
  const int rc = bed.run_to_completion(*mpx);
  EXPECT_NE(rc, 0);
}

TEST(Mpiexec, KilledRanksLeaveNothingToWake) {
  // Rank 0 is killed while blocked in a PMI get of a key nobody has
  // published, rank 1 while its connect's round trip is in flight. Rank 2
  // publishes the key after both. The gang fails as a disconnect, and
  // neither dead rank resumes: no get returns, no connection is made.
  TestBed bed(os::Machine::breadboard(4));
  auto side = bed.machine.network().listen({3, 4000});
  int accepted = 0;
  bed.engine.spawn("side", [](net::Listener& l, int& n) -> Task<void> {
    while (co_await l.accept()) ++n;
  }(*side, accepted));
  int woke = 0;
  bed.install_app("victim", [&woke](Env& env) -> Task<void> {
    const int rank = std::stoi(env.var("PMI_RANK"));
    os::Machine* m = env.machine;
    const os::Machine::Pid self = m->engine().running_actor();
    if (rank == 0) {
      m->engine().call_in(sim::milliseconds(10), [m, self] { m->kill(self); });
      (void)co_await env.pmi->get("never");
      ++woke;
    } else if (rank == 1) {
      m->engine().call_in(1, [m, self] { m->kill(self); });
      (void)co_await m->network().connect(env.node, {3, 4000});
      ++woke;
    } else {
      co_await sim::delay(sim::seconds(1));
      env.pmi->put("never", "late");
      co_await sim::delay(sim::seconds(1));
    }
  });
  MpiexecSpec spec;
  spec.user_argv = {"victim"};
  spec.nprocs = 3;
  auto mpx = bed.launch_manual(spec, {0, 1, 2});
  EXPECT_NE(bed.run_to_completion(*mpx), 0);
  EXPECT_EQ(mpx->fail_kind(), MpiexecFailKind::kDisconnect);
  EXPECT_GE(bed.engine.now(), sim::seconds(2));  // rank 2 ran to its end
  EXPECT_EQ(woke, 0);
  EXPECT_EQ(accepted, 0);
  side->close();
  bed.engine.run();
}

TEST(Mpiexec, FailedRankProducesNonzeroExit) {
  TestBed bed(os::Machine::breadboard(4));
  bed.install_app("crasher", [](Env& env) -> Task<void> {
    if (env.var("PMI_RANK") == "1") throw std::runtime_error("segfault");
    co_return;
  });
  MpiexecSpec spec;
  spec.user_argv = {"crasher"};
  spec.nprocs = 2;
  auto mpx = bed.launch_manual(spec, {0, 1});
  EXPECT_NE(bed.run_to_completion(*mpx), 0);
}

TEST(Mpiexec, ManyConcurrentJobsCoexist) {
  TestBed bed(os::Machine::breadboard(16));
  int ran = 0;
  bed.install_app("noop", [&ran](Env&) -> Task<void> {
    ++ran;
    co_return;
  });
  std::vector<std::unique_ptr<Mpiexec>> jobs;
  for (int j = 0; j < 8; ++j) {
    MpiexecSpec spec;
    spec.user_argv = {"noop"};
    spec.nprocs = 2;
    jobs.push_back(std::make_unique<Mpiexec>(bed.machine, bed.apps,
                                             bed.machine.login_node(), spec));
    jobs.back()->start();
    auto cmds = jobs.back()->proxy_commands();
    for (std::size_t k = 0; k < cmds.size(); ++k) {
      bed.run_proxy(static_cast<os::NodeId>((2 * j + k) % 16), cmds[k]);
    }
  }
  int failures = 0;
  for (auto& job : jobs) {
    if (bed.run_to_completion(*job) != 0) ++failures;
  }
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(ran, 16);
}

}  // namespace
}  // namespace jets::pmi
