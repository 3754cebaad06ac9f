// Tests for the mini-MPI library: init wire-up, send/recv, barrier, wtime.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mpi/comm.hh"
#include "testbed.hh"

namespace jets::mpi {
namespace {

using os::Env;
using sim::Task;
using test::TestBed;

pmi::MpiexecSpec spec_for(const std::string& app, int nprocs, int ppn = 1) {
  pmi::MpiexecSpec s;
  s.user_argv = {app};
  s.nprocs = nprocs;
  s.ranks_per_proxy = ppn;
  return s;
}

std::vector<os::NodeId> hosts(int n) {
  std::vector<os::NodeId> h;
  for (int i = 0; i < n; ++i) h.push_back(static_cast<os::NodeId>(i));
  return h;
}

TEST(MpiComm, InitExposesRankAndSize) {
  TestBed bed(os::Machine::breadboard(8));
  std::vector<int> ranks;
  bed.install_app("init_app", [&ranks](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    EXPECT_EQ(comm->size(), 4);
    ranks.push_back(comm->rank());
    co_await comm->finalize();
  });
  auto mpx = bed.launch_manual(spec_for("init_app", 4), hosts(4));
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  std::sort(ranks.begin(), ranks.end());
  EXPECT_EQ(ranks, (std::vector<int>{0, 1, 2, 3}));
}

TEST(MpiComm, PointToPointRanksOutsideTheCommunicatorThrow) {
  // send(size) used to block forever on a PMI get for a card nobody
  // publishes, and recv(size) on a gate nobody opens: the gang never
  // finished.
  TestBed bed(os::Machine::breadboard(2));
  int caught = 0;
  bed.install_app("stray", [&caught](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    const int size = comm->size();
    try {
      co_await comm->send(size, 8);
    } catch (const std::invalid_argument&) {
      ++caught;
    }
    try {
      co_await comm->ssend(-1, 8);
    } catch (const std::invalid_argument&) {
      ++caught;
    }
    try {
      (void)co_await comm->recv(size);
    } catch (const std::invalid_argument&) {
      ++caught;
    }
    try {
      (void)co_await comm->recv(-1);
    } catch (const std::invalid_argument&) {
      ++caught;
    }
    co_await comm->barrier();
    co_await comm->finalize();
  });
  auto mpx = bed.launch_manual(spec_for("stray", 2), hosts(2));
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_EQ(caught, 4 * 2);
}

TEST(MpiComm, AcceptorDropsMalformedHellos) {
  // Rank 0 dials rank 1's endpoint (from its PMI card) on raw sockets and
  // sends hellos that name no rank of the gang, then a frame that is not
  // a hello at all. A non-numeric hello used to kill the acceptor with an
  // exception out of Engine::run(); now each connection is dropped and the
  // real ranks still wire up.
  TestBed bed(os::Machine::breadboard(2));
  int finished = 0;
  bed.install_app("rogue", [&finished](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    if (comm->rank() == 0) {
      const std::string card = co_await env.pmi->get("card.1");
      const auto space = card.find(' ');
      const net::Address peer{
          *net::rpc::parse_number<os::NodeId>(card.substr(0, space)),
          *net::rpc::parse_number<net::Port>(card.substr(space + 1))};
      std::vector<net::Message> junk = {
          net::Message("mpi.hello", {"x"}), net::Message("mpi.hello", {"-1"}),
          net::Message("mpi.hello", {"2"}), net::Message("mpi.hello"),
          net::Message("mpi.msg", {"0", "0"})};
      for (net::Message& m : junk) {
        net::SocketPtr s =
            co_await env.machine->network().connect(env.node, peer);
        s->send(std::move(m));
      }
    }
    for (int i = 0; i < 3; ++i) co_await comm->barrier();
    const double sum = co_await comm->allreduce_sum(comm->rank() + 1);
    EXPECT_EQ(sum, 3.0);
    ++finished;
    co_await comm->finalize();
  });
  auto mpx = bed.launch_manual(spec_for("rogue", 2), hosts(2));
  int rc = -1;
  EXPECT_NO_THROW(rc = bed.run_to_completion(*mpx));
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(finished, 2);
}

TEST(MpiComm, InitOutsidePmiThrows) {
  TestBed bed(os::Machine::breadboard(2));
  bool threw = false;
  bed.apps.install("bare", [&threw](Env& env) -> Task<void> {
    try {
      auto comm = co_await Comm::init(env);
      co_await comm->finalize();
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  os::run_command(bed.machine, bed.apps, 0, {"bare"});
  bed.engine.run();
  EXPECT_TRUE(threw);
}

TEST(MpiComm, SendRecvDeliversBytes) {
  TestBed bed(os::Machine::breadboard(4));
  std::size_t got = 0;
  int got_tag = -1;
  bed.install_app("sr_app", [&](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    if (comm->rank() == 0) {
      co_await comm->send(1, 4096, /*tag=*/7);
    } else {
      RecvResult r = co_await comm->recv(0);
      got = r.bytes;
      got_tag = r.tag;
      EXPECT_EQ(r.source, 0);
    }
    co_await comm->finalize();
  });
  auto mpx = bed.launch_manual(spec_for("sr_app", 2), hosts(2));
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_EQ(got, 4096u);
  EXPECT_EQ(got_tag, 7);
}

TEST(MpiComm, PingPongRoundTripScalesWithPayload) {
  // The Fig 8 access pattern: alternating blocking send/recv on two nodes.
  TestBed bed(os::Machine::breadboard(4));
  double small_rtt = 0, large_rtt = 0;
  bed.install_app("pp_app", [&](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    auto pingpong = [&](std::size_t bytes) -> Task<double> {
      const double t0 = comm->wtime();
      if (comm->rank() == 0) {
        co_await comm->send(1, bytes);
        (void)co_await comm->recv(1);
      } else {
        (void)co_await comm->recv(0);
        co_await comm->send(0, bytes);
      }
      co_return comm->wtime() - t0;
    };
    const double s = co_await pingpong(8);
    const double l = co_await pingpong(1 << 22);
    if (comm->rank() == 0) {
      small_rtt = s;
      large_rtt = l;
    }
    co_await comm->finalize();
  });
  auto mpx = bed.launch_manual(spec_for("pp_app", 2), hosts(2));
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_GT(small_rtt, 0.0);
  EXPECT_GT(large_rtt, small_rtt * 10);  // 4 MB payload dominates
}

TEST(MpiComm, BarrierHoldsBackEarlyRanks) {
  TestBed bed(os::Machine::breadboard(8));
  std::vector<double> exit_times;
  bed.install_app("bar_app", [&](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    // Stagger arrival: rank r sleeps r seconds.
    co_await sim::delay(sim::seconds(comm->rank()));
    co_await comm->barrier();
    exit_times.push_back(comm->wtime());
    co_await comm->finalize();
  });
  auto mpx = bed.launch_manual(spec_for("bar_app", 4), hosts(4));
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  ASSERT_EQ(exit_times.size(), 4u);
  // Nobody leaves before the slowest (3 s) arrival.
  for (double t : exit_times) EXPECT_GE(t, 3.0);
  // And everyone leaves within a small window after it.
  for (double t : exit_times) EXPECT_LT(t, 3.1);
}

TEST(MpiComm, SingleRankBarrierIsImmediate) {
  TestBed bed(os::Machine::breadboard(2));
  bool done = false;
  bed.install_app("solo", [&done](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    co_await comm->barrier();
    co_await comm->barrier();
    done = true;
    co_await comm->finalize();
  });
  auto mpx = bed.launch_manual(spec_for("solo", 1), hosts(1));
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_TRUE(done);
}

TEST(MpiComm, RepeatedBarriersStaySynchronized) {
  TestBed bed(os::Machine::breadboard(8));
  int completed = 0;
  bed.install_app("multi_bar", [&completed](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    for (int i = 0; i < 5; ++i) co_await comm->barrier();
    ++completed;
    co_await comm->finalize();
  });
  auto mpx = bed.launch_manual(spec_for("multi_bar", 8, 2), hosts(4));
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_EQ(completed, 8);
}

TEST(MpiComm, WtimeAdvancesWithSimulatedTime) {
  TestBed bed(os::Machine::breadboard(2));
  double t0 = -1, t1 = -1;
  bed.install_app("wt_app", [&](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    t0 = comm->wtime();
    co_await sim::delay(sim::seconds(3));
    t1 = comm->wtime();
    co_await comm->finalize();
  });
  auto mpx = bed.launch_manual(spec_for("wt_app", 1), hosts(1));
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_NEAR(t1 - t0, 3.0, 1e-9);
}

TEST(MpiComm, NativeFabricBeatsSocketsOnLatency) {
  // Fig 8's contrast, at the Comm level: same program, two substrates.
  auto run_pingpong = [](os::MachineSpec spec) {
    TestBed bed(std::move(spec));
    double rtt = 0;
    bed.install_app("pp", [&rtt](Env& env) -> Task<void> {
      auto comm = co_await Comm::init(env);
      const double t0 = comm->wtime();
      for (int i = 0; i < 10; ++i) {
        if (comm->rank() == 0) {
          co_await comm->send(1, 8);
          (void)co_await comm->recv(1);
        } else {
          (void)co_await comm->recv(0);
          co_await comm->send(0, 8);
        }
      }
      if (comm->rank() == 0) rtt = (comm->wtime() - t0) / 10;
      co_await comm->finalize();
    });
    pmi::MpiexecSpec s;
    s.user_argv = {"pp"};
    s.nprocs = 2;
    auto mpx = bed.launch_manual(s, {0, 1});
    EXPECT_EQ(bed.run_to_completion(*mpx), 0);
    return rtt;
  };

  os::MachineSpec sockets = os::Machine::surveyor(64);
  os::MachineSpec native = os::Machine::surveyor(64);
  native.name = "surveyor-native";
  native.fabric = std::make_shared<net::TorusNativeFabric>(net::TorusShape{4, 4, 4});
  sockets.fabric = std::make_shared<net::TorusTcpFabric>(net::TorusShape{4, 4, 4});

  const double tcp_rtt = run_pingpong(sockets);
  const double native_rtt = run_pingpong(native);
  EXPECT_GT(tcp_rtt, native_rtt * 10);  // order(s) of magnitude, as in Fig 8
}

}  // namespace
}  // namespace jets::mpi
