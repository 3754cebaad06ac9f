// Allocation budget of the simulated message path, of an actor's, a
// process's, a connection's and a sequential job's life, of a PMI call and
// an MPI gang's launch and wire-up, of a waiting Swift statement, and of a
// service checkpoint.
//
// This binary replaces the global operator new with a counting one, so a
// test can assert how many heap allocations a steady-state operation
// costs. Putting an allocation back on the send -> deliver -> recv path (a
// heap closure per delivery event, a wait state per blocked receive, a
// coroutine frame per socket receive, a decimal-string frame per protocol
// verb, a coroutine frame per MPI send or receive on a wired pair), into a
// spawn, a join, a connect, a permit or an rpc call, into a channel's
// route table, on a gate wait or a shared-filesystem transfer, into
// process bookkeeping or a job's dispatch, into a Swift statement that
// waits for its inputs, or a per-job copy back into checkpoint(), fails
// here, in ctest, and not only in the host-cost benchmark.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <variant>

#include "apps/synthetic.hh"
#include "core/snapshot.hh"
#include "mpi/comm.hh"
#include "net/fabric.hh"
#include "net/rpc.hh"
#include "net/socket.hh"
#include "pmi/client.hh"
#include "sim/sim.hh"
#include "swift/engine.hh"
#include "testbed.hh"
#include "testutil.hh"

namespace {
std::size_t g_allocs = 0;

/// Heap allocations made while running `fn`.
template <typename F>
std::size_t allocations_in(F&& fn) {
  const std::size_t before = g_allocs;
  fn();
  return g_allocs - before;
}
}  // namespace

// Out of line, so GCC does not pair an inlined free() with the new
// expression it sees (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace jets::net {
namespace {

using sim::Engine;
using sim::Task;

/// An established connection from node 0 (client) to node 1 (server).
class AllocBudget : public ::testing::Test {
 protected:
  void SetUp() override {
    engine.spawn("accept", [](Listener& l, SocketPtr& out) -> Task<void> {
      out = co_await l.accept();
    }(*listener, server));
    engine.spawn("connect", [](Network& net, SocketPtr& out) -> Task<void> {
      out = co_await net.connect(0, {1, 5000});
    }(net, client));
    engine.run();
    ASSERT_NE(client, nullptr);
    ASSERT_NE(server, nullptr);
  }
  // Blocked readers hold sockets in their frames: destroy those frames
  // while the network is still alive.
  void TearDown() override { engine.shutdown(); }

  Engine engine;
  Network net{engine, std::make_shared<EthernetFabric>()};
  std::unique_ptr<Listener> listener = net.listen({1, 5000});
  SocketPtr client;
  SocketPtr server;
};

TEST_F(AllocBudget, SteadyStateSendDeliverRecvAllocatesNothing) {
  // The reader naps after each message, so a burst finds it both blocked
  // (first message: direct hand-off) and busy (the rest: buffered).
  int received = 0;
  engine.spawn("reader", [](SocketPtr s, int& n) -> Task<void> {
    while (co_await s->recv()) {
      ++n;
      co_await sim::delay(sim::milliseconds(1));
    }
  }(server, received));
  auto burst = [&] {
    for (int i = 0; i < 8; ++i) client->send(Message("m"));
    engine.run();
  };
  burst();  // warm-up: event slab, index heap, arena slots, inbox ring
  EXPECT_EQ(allocations_in(burst), 0u);
  EXPECT_EQ(received, 16);
}

TEST_F(AllocBudget, BlockingReceivesAllocateNothing) {
  // One message at a time, so every receive suspends first.
  int got = 0;
  engine.spawn("reader", [](SocketPtr s, int& got) -> Task<void> {
    while (co_await s->recv()) ++got;
  }(server, got));
  auto rounds = [&] {
    for (int i = 0; i < 20; ++i) {
      client->send(Message("a"));
      engine.run_until(engine.now() + sim::milliseconds(100));
    }
  };
  rounds();  // warm-up
  EXPECT_EQ(allocations_in(rounds), 0u);
  EXPECT_EQ(got, 40);
}

TEST(AllocBudgetCallback, HotClosuresStayInline) {
  Engine e;
  auto hits = std::make_shared<int>(0);
  auto warm = [&] {
    for (int i = 0; i < 3; ++i) e.call_in(1, [] {});
    e.run();
  };
  warm();
  // Non-trivially-copyable captures up to Callback::kInlineBytes, like a
  // socket delivery's or EOF's counted connection reference (16 bytes),
  // and one of the full 24. std::function would put each on the heap.
  EXPECT_EQ(allocations_in([&] {
              e.call_in(1, [hits] { ++*hits; });
              e.call_in(2, [hits, twice = true] { *hits += twice ? 2 : 1; });
              e.run();
            }),
            0u);
  EXPECT_EQ(*hits, 3);
  // Larger closures spill to the heap: one allocation each.
  const std::array<std::uint64_t, 3> big{1, 2, 3};
  EXPECT_EQ(allocations_in([&] {
              e.call_in(1, [hits, big] { *hits += static_cast<int>(big[2]); });
              e.run();
            }),
            1u);
  EXPECT_EQ(*hits, 6);
}

TEST_F(AllocBudget, TypedPmiAndMpiFramesAllocateNothing) {
  // Each verb travels as its struct inside the frame (no argument vector,
  // no decimal strings), and take<M>() moves it out at the receiver. Keys
  // and values as short as the real ones ("card.12", "0 5000") stay in
  // the strings' own buffers.
  int taken = 0;
  engine.spawn("reader", [](SocketPtr s, int& n) -> Task<void> {
    while (auto m = co_await s->recv()) {
      auto v = rpc::take_any<rpc::MpiMsg, rpc::PmiGet, rpc::PmiPut,
                             rpc::PmiValue>(std::move(*m));
      if (!std::holds_alternative<rpc::DecodeError>(v)) ++n;
    }
  }(server, taken));
  auto burst = [&] {
    rpc::post(*client, rpc::MpiMsg(3, -2, 0.1, 8));
    rpc::post(*client, rpc::PmiGet("card.12"));
    rpc::post(*client, rpc::PmiPut("card.12", "0 5000"));
    rpc::post(*client, rpc::PmiValue("card.12", "0 5000"));
    engine.run();
  };
  burst();  // warm-up: event slab, arena slots, inbox ring
  EXPECT_EQ(allocations_in(burst), 0u);
  EXPECT_EQ(taken, 8);
}

// A stage-in header rides the frame's inline body, so a new StageReq field
// that grows it past the buffer brings back a heap allocation per send.
static_assert(sizeof(rpc::StageReq) <= Body::kInlineBytes);

TEST_F(AllocBudget, TypedStageFramesAllocateNothing) {
  // Like the PMI and MPI verbs, the header travels as its struct; a path as
  // short as a real input's name stays in the string's own buffer.
  int taken = 0;
  engine.spawn("reader", [](SocketPtr s, int& n) -> Task<void> {
    while (auto m = co_await s->recv()) {
      if (rpc::take<rpc::StageReq>(std::move(*m)).ok()) ++n;
    }
  }(server, taken));
  const StageHeader push{"ens_input", 0xabc, 4096, StageHeader::Source::kPush,
                         0};
  const StageHeader peer{"ens_input", 0xabc, 4096, StageHeader::Source::kPeer,
                         7};
  auto burst = [&] {
    rpc::post(*client, rpc::StageReq(push, /*pay=*/4096));
    rpc::post(*client, rpc::StageReq(peer));
    engine.run();
  };
  burst();  // warm-up: event slab, arena slots, inbox ring
  EXPECT_EQ(allocations_in(burst), 0u);
  EXPECT_EQ(taken, 4);
}

constexpr std::size_t kAllocsPerCall = 1;

TEST_F(AllocBudget, RpcCallReplyCostIsPinned) {
  // A pump-mode PMI get against a raw-socket responder. The round trip's
  // one allocation, both sides: the call() coroutine frame, which holds
  // the wait state and runs the pump loop itself; the pending call points
  // into it instead of holding a callback. The frames are typed, so
  // neither carries an argument vector; correlation (the scan of the
  // pending calls) allocates nothing.
  engine.spawn("kvs", [](SocketPtr s) -> Task<void> {
    while (auto m = co_await s->recv()) {
      auto get = rpc::take<rpc::PmiGet>(std::move(*m));
      if (get.ok()) rpc::post(*s, rpc::PmiValue(std::move(get.value().key), "0 5000"));
    }
  }(server));
  rpc::Channel chan(engine, client);
  int ok = 0;
  auto calls = [&](int n) {
    engine.spawn("client", [](rpc::Channel& chan, int n, int& ok)
                               -> Task<void> {
      for (int i = 0; i < n; ++i) {
        auto r = co_await chan.call(rpc::PmiGet("card.1"));
        if (r.ok() && r.value().value == "0 5000") ++ok;
      }
    }(chan, n, ok));
    engine.run();
  };
  calls(4);  // warm-up: routes, the pending-call vector, slabs
  const std::size_t spawn_cost = allocations_in([&] { calls(0); });
  const std::size_t ten_calls = allocations_in([&] { calls(10); }) - spawn_cost;
  EXPECT_EQ(ok, 14);
  EXPECT_EQ(chan.in_flight(), 0u);
  EXPECT_EQ(ten_calls, 10 * kAllocsPerCall);
}

TEST_F(AllocBudget, ChannelInstallsItsRoutesWithOneAllocation) {
  // A channel's route table is sized once: the service's side of a worker
  // connection installs its five verbs, and the worker's side its three,
  // in one allocation each, not one per doubling. Handlers whose captures
  // fit two pointers are stored as the routes themselves, with no second
  // wrapper of their own.
  rpc::Channel service(engine, server);
  rpc::Channel worker(engine, client);
  int seen = 0;
  const auto count = [&seen](auto&&) { ++seen; };
  EXPECT_EQ(allocations_in([&] {
              service.on<rpc::RegisterReq>(count);
              service.on<rpc::PingNote>(count);
              service.on<rpc::ReadyNote>(count);
              service.on<rpc::StageAck>(count);
              service.on<rpc::TaskDone>(count);
            }),
            1u);
  EXPECT_EQ(allocations_in([&] {
              worker.on<rpc::TaskRun>(count);
              worker.on<rpc::KillReq>(count);
              worker.on<rpc::StageReq>(count);
            }),
            1u);
}

TEST_F(AllocBudget, ConnectAcceptCloseCostsOneBlock) {
  // Connect is an awaiter (the round trip is the caller's own resumption,
  // no coroutine frame), and both endpoints and both directions share one
  // block. The acceptor drops each socket at once and the client drops its
  // end after the round trip, so every cycle also runs both closes.
  auto listener6 = net.listen({1, 6000});
  engine.spawn("acceptor", [](Listener& l) -> Task<void> {
    while (co_await l.accept()) {
    }
  }(*listener6));
  auto cycles = [&](int n) {
    return allocations_in([&] {
      engine.spawn("dialer", [](Network& net, int n) -> Task<void> {
        for (int i = 0; i < n; ++i) {
          SocketPtr s = co_await net.connect(0, {1, 6000});
        }
      }(net, n));
      engine.run();
    });
  };
  cycles(4);  // warm-up: the accept queue, event slab and heap
  const std::size_t dialer = cycles(0);
  EXPECT_EQ(cycles(10) - dialer, 10u);
  EXPECT_EQ(net.connection_count(), 1u);  // the fixture's own
  listener6->close();
  engine.run();
}

}  // namespace
}  // namespace jets::net

namespace jets::mpi {
namespace {

TEST(AllocBudgetComm, WiredSendRecvAllocatesNothing) {
  // Once a pair is wired, send() posts the typed frame and completes at
  // once, and recv() awaits the socket's own receive: no coroutine frame,
  // no map node, no gate. Rank 0 counts the allocations of a stretch of
  // ping-pongs, everything the engine runs in between included.
  test::TestBed bed(os::Machine::breadboard(2));
  std::size_t allocs = 1;
  int rounds = 0;
  bed.install_app("pp", [&allocs, &rounds](os::Env& env) -> sim::Task<void> {
    auto comm = co_await Comm::init(env);
    const int peer = 1 - comm->rank();
    auto ping_pong = [&](int n) -> sim::Task<void> {
      for (int i = 0; i < n; ++i) {
        if (comm->rank() == 0) {
          co_await comm->send(peer, 64, /*tag=*/i, 0.5 * i);
          const RecvResult r = co_await comm->recv(peer);
          if (r.value == 0.5 * i) ++rounds;
        } else {
          const RecvResult r = co_await comm->recv(peer);
          co_await comm->send(peer, r.bytes, r.tag, r.value);
        }
      }
    };
    co_await ping_pong(4);  // wires the pair, warms the rings and slabs
    sim::Task<void> measured = ping_pong(16);
    const std::size_t before = g_allocs;
    co_await std::move(measured);
    // Rank 1 holds its finalize (a PMI call) until rank 0 has counted.
    if (comm->rank() == 0) {
      allocs = g_allocs - before;
      co_await comm->send(peer, 1);
    } else {
      (void)co_await comm->recv(peer);
    }
    co_await comm->finalize();
  });
  pmi::MpiexecSpec spec;
  spec.user_argv = {"pp"};
  spec.nprocs = 2;
  auto mpx = bed.launch_manual(spec, {0, 1});
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_EQ(rounds, 20);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace jets::mpi

namespace jets::sim {
namespace {

TEST(AllocBudgetEngine, SpawnAndJoinCostOnlyFrames) {
  // An actor's context is a cell of the engine's slab and its id a slot in
  // a flat index, and a joiner parks in its own frame: once the slab, the
  // index and the event heap have grown to a wave's size, spawning,
  // joining and finishing N actors costs their N coroutine frames.
  Engine engine;
  auto wave = [&](int n) {
    return allocations_in([&] {
      for (int i = 0; i < n; ++i) {
        const ActorId child = engine.spawn(
            "child", [](int i) -> Task<void> { co_await delay(i); }(i));
        engine.spawn("joiner", [](Engine& e, ActorId child) -> Task<void> {
          co_await e.join(child);
        }(engine, child));
      }
      engine.run();
    });
  };
  wave(1'000);  // warm-up
  EXPECT_EQ(wave(10), 2 * 10u);
  EXPECT_EQ(wave(1'000), 2 * 1'000u);
  EXPECT_EQ(engine.live_actor_count(), 0u);
}

TEST(AllocBudgetEngine, FreeAndContendedPermitAcquiresAllocateNothing) {
  // Permit::acquire is the semaphore's own awaiter resuming with the
  // permit, so neither taking a free permit nor parking until one is
  // handed over allocates a frame.
  Engine engine;
  Semaphore sem(engine, 1);
  auto acquire = [](Semaphore& sem, std::size_t& allocs) -> Task<void> {
    const std::size_t before = g_allocs;
    Permit p = co_await Permit::acquire(sem);
    allocs = g_allocs - before;
    co_await delay(seconds(1));
  };
  std::size_t warm = 1;
  engine.spawn("warm-up", acquire(sem, warm));  // the engine's slabs
  engine.run();
  std::size_t free_acquire = 1;
  std::size_t contended_acquire = 1;
  engine.spawn("holder", acquire(sem, free_acquire));
  engine.spawn("waiter", acquire(sem, contended_acquire));
  engine.run();
  EXPECT_EQ(free_acquire, 0u);
  EXPECT_EQ(contended_acquire, 0u);
  EXPECT_EQ(engine.now(), seconds(3));  // the waiter parked for 1 s
  EXPECT_EQ(sem.available(), 1u);
}

}  // namespace
}  // namespace jets::sim

namespace jets::pmi {
namespace {

TEST(AllocBudgetPmi, GetCostsOnlyTheCallFrame) {
  // PmiClient::get adds no frame of its own to the channel call's, and
  // mpiexec answers a published key without allocating, so a warm get
  // costs one allocation across both sides.
  test::TestBed bed(os::Machine::breadboard(2));
  std::size_t allocs = 0;
  bed.install_app("getter", [&allocs](os::Env& env) -> sim::Task<void> {
    if (env.pmi->rank() == 0) env.pmi->put("card.0", "0 5000");
    co_await env.pmi->barrier();
    if (env.pmi->rank() == 1) {
      for (int i = 0; i < 4; ++i) (void)co_await env.pmi->get("card.0");
      const std::size_t before = g_allocs;
      for (int i = 0; i < 10; ++i) {
        if (co_await env.pmi->get("card.0") != "0 5000") co_return;
      }
      allocs = g_allocs - before;
    }
    co_await env.pmi->barrier();
  });
  MpiexecSpec spec;
  spec.user_argv = {"getter"};
  spec.nprocs = 2;
  auto mpx = bed.launch_manual(spec, {0, 1});
  EXPECT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_EQ(allocs, 10 * net::kAllocsPerCall);
}

/// Ranks per gang in the gang pin: one per node and per proxy, as most of
/// mpi_gang's gangs are placed.
constexpr int kGangRanks = 8;

/// An mpi_sleep gang of kGangRanks ranks, launched through launch_manual
/// and run to completion: mpiexec and its spec, the proxy command lines,
/// each proxy's and rank's exec, binary load and frames, the PMI clients
/// and their calls, the connections (one block each), KVS entries, and the
/// MPI wire-up of the barriers. Mpiexec and the ranks hold their listeners
/// by value and a proxy's bootstrap permit is an awaiter, so neither
/// allocates. Measured; a change that moves it must say which allocation
/// it added or removed.
constexpr std::size_t kAllocsPerGang = 408;

std::size_t gang_allocations(test::TestBed& bed, int gangs) {
  std::vector<os::NodeId> hosts;
  for (int r = 0; r < kGangRanks; ++r) {
    hosts.push_back(static_cast<os::NodeId>(r));
  }
  return allocations_in([&] {
    for (int g = 0; g < gangs; ++g) {
      MpiexecSpec spec;
      spec.user_argv = {"mpi_sleep", "0.01"};
      spec.nprocs = kGangRanks;
      auto mpx = bed.launch_manual(spec, hosts);
      EXPECT_EQ(bed.run_to_completion(*mpx), 0);
    }
  });
}

TEST(AllocBudgetGang, GangsCostTheSameEach) {
  // Launch (mpiexec, proxies, ranks), the PMI fence and the per-pair
  // wire-up leave nothing behind that grows: once warm, k gangs cost k
  // times one.
  test::TestBed bed(os::Machine::breadboard(kGangRanks));
  apps::install_synthetic_apps(bed.apps);
  bed.machine.shared_fs().put("mpi_sleep", 5'000'000);
  (void)gang_allocations(bed, 3);  // warm-up: slabs, tables, cached binaries
  const std::size_t one = gang_allocations(bed, 1);
  EXPECT_EQ(gang_allocations(bed, 10), 10 * one);
  EXPECT_EQ(gang_allocations(bed, 100), 100 * one);
  EXPECT_EQ(one, kAllocsPerGang);
}

}  // namespace
}  // namespace jets::pmi

namespace jets::os {
namespace {

using sim::Engine;
using sim::Task;

TEST(AllocBudgetProcess, SequentialChildrenCostTheSameEach) {
  // A long-lived parent execs batches of children one after another. Each
  // child costs its spawn and its frames, nothing that stays behind: a
  // finished child leaves its parent's list, so the thousandth costs what
  // the first did.
  Engine engine;
  Machine machine(engine, Machine::breadboard(1));
  sim::Channel<int> batches(engine);
  machine.exec(0, "parent", [](Machine& m, sim::Channel<int>& batches)
                                -> Task<void> {
    while (const auto n = co_await batches.recv()) {
      for (int i = 0; i < *n; ++i) {
        co_await m.wait(
            m.exec(0, "child", []() -> Task<void> { co_return; }()));
      }
    }
  }(machine, batches));
  engine.run();
  auto children = [&](int n) {
    return allocations_in([&] {
      batches.push(n);
      engine.run();
    });
  };
  children(4);  // warm-up: event and actor slabs, the process table
  const std::size_t one = children(1);
  EXPECT_EQ(children(10), 10 * one);
  EXPECT_EQ(children(1'000), 1'000 * one);
  EXPECT_EQ(machine.process_count(), 1u);
}

TEST(AllocBudgetProcess, GateWaitAndSharedReadAllocateOnlyFrames) {
  // Gate waiters park in their own frames, and a shared-filesystem
  // transfer is a slot in the server's heap, not a gate and a map node of
  // its own: once warm, the only allocation of a read is the read()
  // coroutine's frame.
  Engine engine;
  sim::Gate gate(engine);
  SharedFs fs(engine, sim::milliseconds(1), 1e6);
  fs.put("/gpfs/input", 4'096);
  int woken = 0;
  int reads = 0;
  for (int i = 0; i < 3; ++i) {
    engine.spawn("waiter", [](sim::Gate& g, int& woken) -> Task<void> {
      for (;;) {
        co_await g.wait();
        ++woken;
        co_await sim::delay(sim::milliseconds(1));
      }
    }(gate, woken));
    engine.spawn("reader", [](SharedFs& fs, sim::Gate& g,
                              int& reads) -> Task<void> {
      for (;;) {
        co_await g.wait();
        co_await fs.read("/gpfs/input");
        ++reads;
      }
    }(fs, gate, reads));
  }
  auto pulse = [&] {
    gate.open();
    gate.close();
    engine.run();
  };
  engine.run();
  pulse();  // warm-up: event slab, the transfer heap
  const std::size_t allocs = allocations_in([&] {
    for (int i = 0; i < 5; ++i) pulse();
  });
  EXPECT_EQ(woken, 18);
  EXPECT_EQ(reads, 18);
  EXPECT_EQ(allocs, 15u) << "one read() frame per read";
  engine.shutdown();  // end the parked actors while the gate and fs live
}

}  // namespace
}  // namespace jets::os

namespace jets::swift {
namespace {

/// Allocations per statement of registering statements that wait for an
/// unset variable and running their first activations, which park them:
/// the inputs vector of the AppCall the test builds. A statement holds no
/// coroutine frame and no actor until its inputs are set.
constexpr std::size_t kAllocsPerParkedStatement = 1;

TEST(AllocBudgetSwift, ParkedStatementsCostNoFrameWhateverTheirNumber) {
  test::TestBed bed(os::Machine::breadboard(1));
  CoasterService coasters(bed.machine, bed.apps, {});
  SwiftEngine swift(bed.machine, coasters);
  // Warm-up: statements that start at once and end on the login node grow
  // the statement table, the event slab and the actor slab, and leave
  // their records free for the next app() calls.
  for (int i = 0; i < 1'100; ++i) {
    swift.app({.argv = {}, .inputs = {}, .outputs = {}, .run_on_login = true});
  }
  bed.engine.run();
  ASSERT_EQ(swift.completed(), 1'100u);
  const std::size_t actors = bed.engine.live_actor_count();
  DataPtr in = swift.file("/gpfs/in");
  auto park = [&](std::size_t n) {
    return allocations_in([&] {
      for (std::size_t i = 0; i < n; ++i) {
        swift.app({.argv = {}, .inputs = {in}, .outputs = {}});
      }
      bed.engine.run();
    });
  };
  EXPECT_EQ(park(100), 100 * kAllocsPerParkedStatement);
  EXPECT_EQ(park(1'000), 1'000 * kAllocsPerParkedStatement);
  EXPECT_EQ(bed.engine.live_actor_count(), actors);
}

}  // namespace
}  // namespace jets::swift

namespace jets::core {
namespace {

/// Allocations of one checkpoint image for a service on 4 workers that has
/// settled `jobs` jobs.
std::size_t checkpoint_allocations(std::size_t jobs) {
  test::ServiceBed bed(os::Machine::breadboard(4), {{"sleep", 16'384}});
  StandaloneJets jets(bed.machine, bed.apps, test::ServiceBed::fast_options());
  test::ServiceBed::enlist(jets, 4);
  const BatchReport report = bed.run(
      jets, std::vector<JobSpec>(jobs, test::seq_job({"sleep", "0.01"})));
  EXPECT_EQ(report.completed, jobs);
  return allocations_in([&] { (void)jets.checkpoint().serialize(); });
}

/// Allocations per job of a batch of `n` one-task jobs through a warm
/// service, rounded: the job table and the report grow in blocks, which
/// comes to well under one allocation per job.
long allocations_per_job(test::ServiceBed& bed, StandaloneJets& jets,
                         std::size_t n) {
  auto batch = [&](std::size_t jobs) {
    std::vector<JobSpec> specs(jobs, test::seq_job({"sleep", "0.01"}));
    return allocations_in([&] {
      EXPECT_EQ(bed.run(jets, std::move(specs)).completed, jobs);
    });
  };
  const std::size_t fixed = batch(0);
  return std::lround(static_cast<double>(batch(n) - fixed) /
                     static_cast<double>(n));
}

/// One sequential job's whole life through StandaloneJets: submit, claim,
/// the run call, the worker's exec and binary load, the app, its done and
/// ready, and the report row. The 14: the records it leaves behind (its
/// attempt's history entry and node list, and the report's copy of its
/// argv, history and nodes), the claimed-worker vector, the TaskRun's argv
/// copy and frame body, and the place_job, run_process, load_binary,
/// shared-FS read, task wrapper and app frames. Spawning the task's actor
/// costs nothing: its context is a cell of the engine's actor slab.
constexpr long kAllocsPerSeqJob = 14;

TEST(AllocBudgetJob, SequentialJobCostIsPinnedWhateverTheBatch) {
  test::ServiceBed bed(os::Machine::breadboard(4), {{"sleep", 16'384}});
  StandaloneJets jets(bed.machine, bed.apps, test::ServiceBed::fast_options());
  test::ServiceBed::enlist(jets, 4);
  (void)allocations_per_job(bed, jets, 1'000);  // warm-up
  EXPECT_EQ(allocations_per_job(bed, jets, 100), kAllocsPerSeqJob);
  EXPECT_EQ(allocations_per_job(bed, jets, 1'000), kAllocsPerSeqJob);
}

TEST(AllocBudgetCheckpoint, AllocationsDoNotGrowWithTheJobTable) {
  // The image is written straight from the live tables into one buffer
  // sized from the job count, so ten times the jobs costs the same
  // allocations; the slack allows one more growth of the image buffer.
  const std::size_t small = checkpoint_allocations(200);
  const std::size_t large = checkpoint_allocations(2'000);
  EXPECT_LE(large, small + 2) << "200 jobs: " << small << ", 2000: " << large;
  EXPECT_LE(small, large + 2) << "200 jobs: " << small << ", 2000: " << large;
}

}  // namespace
}  // namespace jets::core
