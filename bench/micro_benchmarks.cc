// Micro-benchmarks (google-benchmark) for the substrate itself: these
// measure the *host-machine* cost of simulation primitives — event
// throughput, coroutine switches, channel and socket operations, the MD
// kernel — so regressions in the simulator are caught independently of the
// figure harnesses.
#include <benchmark/benchmark.h>

#include "core/staging.hh"
#include "core/standalone.hh"
#include "md/lj_system.hh"
#include "net/socket.hh"
#include "os/cas.hh"
#include "os/machine.hh"
#include "sim/sim.hh"

using namespace jets;

namespace {

void BM_EngineDelayEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    const auto n = static_cast<int>(state.range(0));
    e.spawn("ticker", [](int n) -> sim::Task<void> {
      for (int i = 0; i < n; ++i) co_await sim::delay(sim::microseconds(1));
    }(n));
    e.run();
    benchmark::DoNotOptimize(e.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineDelayEvents)->Arg(1000)->Arg(10000);

void BM_EngineManyActors(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    const auto n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      e.spawn("w", [](int i) -> sim::Task<void> {
        co_await sim::delay(sim::microseconds(i % 101));
      }(i));
    }
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineManyActors)->Arg(1000)->Arg(10000);

void BM_ChannelPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    sim::Channel<int> a(e), b(e);
    const auto rounds = static_cast<int>(state.range(0));
    e.spawn("ping", [](sim::Channel<int>& a, sim::Channel<int>& b,
                       int rounds) -> sim::Task<void> {
      for (int i = 0; i < rounds; ++i) {
        a.push(i);
        (void)co_await b.recv();
      }
    }(a, b, rounds));
    e.spawn("pong", [](sim::Channel<int>& a, sim::Channel<int>& b,
                       int rounds) -> sim::Task<void> {
      for (int i = 0; i < rounds; ++i) {
        (void)co_await a.recv();
        b.push(i);
      }
    }(a, b, rounds));
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_ChannelPingPong)->Arg(1000);

void BM_SocketMessageRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    net::Network net(e, std::make_shared<net::EthernetFabric>());
    auto listener = net.listen({1, 9});
    const auto rounds = static_cast<int>(state.range(0));
    e.spawn("server", [](net::Listener& l, int rounds) -> sim::Task<void> {
      auto s = co_await l.accept();
      for (int i = 0; i < rounds; ++i) {
        auto m = co_await s->recv();
        if (!m) co_return;
        s->send(net::Message("pong"));
      }
    }(*listener, rounds));
    e.spawn("client", [](net::Network& net, int rounds) -> sim::Task<void> {
      auto s = co_await net.connect(0, {1, 9});
      for (int i = 0; i < rounds; ++i) {
        s->send(net::Message("ping"));
        (void)co_await s->recv();
      }
    }(net, rounds));
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SocketMessageRoundTrip)->Arg(500);

void BM_LjStep(benchmark::State& state) {
  md::LjConfig config;
  config.particles = static_cast<std::size_t>(state.range(0));
  md::LjSystem sys(config);
  for (auto _ : state) {
    sys.step(1);
    benchmark::DoNotOptimize(sys.observe().kinetic);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LjStep)->Arg(108)->Arg(500);

void BM_EngineScheduleCancel(benchmark::State& state) {
  // The liveness/retry-timer pattern that dominates the fault benches: arm
  // a batch of far-future timers, cancel them all before they fire, repeat.
  // In a naive engine every cancelled timer bloats the heap (and keeps its
  // closure alive) until the dead event surfaces at the top.
  const auto rounds = static_cast<int>(state.range(0));
  constexpr int kBatch = 128;
  for (auto _ : state) {
    sim::Engine e;
    e.spawn("churn", [](sim::Engine& e, int rounds) -> sim::Task<void> {
      std::vector<sim::TimerHandle> handles;
      handles.reserve(kBatch);
      for (int r = 0; r < rounds; ++r) {
        for (int k = 0; k < kBatch; ++k) {
          handles.push_back(e.call_in(sim::seconds(1000),
                                      [p = &e, k] { benchmark::DoNotOptimize(p + k); }));
        }
        for (auto& h : handles) h.cancel();
        handles.clear();
        co_await sim::delay(sim::microseconds(1));
      }
    }(e, rounds));
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * kBatch);
}
BENCHMARK(BM_EngineScheduleCancel)->Arg(100)->Arg(400);

void BM_EngineTimerDispatch(benchmark::State& state) {
  // Pure callback throughput: n timers at distinct times, all firing.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      e.call_at(sim::microseconds(i), [&sum, i] { sum += static_cast<std::uint64_t>(i); });
    }
    e.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineTimerDispatch)->Arg(10000);

void BM_ServiceChooseJobBackfill(benchmark::State& state) {
  // Scheduler-pick cost under a deep mixed-priority backlog: q jobs drain
  // through 4 workers, so the service re-evaluates the queue on every
  // settle. A per-kick sort of the backlog makes this quadratic-ish in q.
  const auto q = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    os::Machine machine(engine, os::Machine::breadboard(4));
    os::AppRegistry apps;
    apps.install(pmi::kProxyBinary, pmi::Mpiexec::proxy_program(apps));
    machine.shared_fs().put(pmi::kProxyBinary, 2'000'000);
    apps.install("noop", [](os::Env&) -> sim::Task<void> { co_return; });
    machine.shared_fs().put("noop", 16'384);
    core::StandaloneOptions options;
    options.worker.task_overhead = sim::milliseconds(1);
    options.service.policy = core::SchedPolicy::kPriorityBackfill;
    core::StandaloneJets jets(machine, apps, options);
    jets.start({0, 1, 2, 3});
    std::vector<core::JobSpec> jobs(q);
    for (std::size_t i = 0; i < q; ++i) {
      jobs[i].argv = {"noop"};
      jobs[i].priority = static_cast<int>((i * 2654435761u) % 8);
    }
    engine.spawn("driver", [](core::StandaloneJets& jets,
                              std::vector<core::JobSpec> jobs) -> sim::Task<void> {
      (void)co_await jets.run_batch(std::move(jobs));
    }(jets, std::move(jobs)));
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ServiceChooseJobBackfill)->Arg(512);

void BM_ServiceClaimWorkersNetworkAware(benchmark::State& state) {
  // Network-aware grouping cost: every MPI placement scans the ready pool
  // for the minimum node-id span window. A per-claim copy+sort of the whole
  // pool makes each placement O(R log R).
  const auto nodes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    os::Machine machine(engine, os::Machine::breadboard(nodes));
    os::AppRegistry apps;
    apps.install(pmi::kProxyBinary, pmi::Mpiexec::proxy_program(apps));
    machine.shared_fs().put(pmi::kProxyBinary, 2'000'000);
    apps.install("mpi_sleep", [](os::Env& env) -> sim::Task<void> {
      co_await sim::delay(sim::milliseconds(1));
      (void)env;
    });
    machine.shared_fs().put("mpi_sleep", 25'000'000);
    core::StandaloneOptions options;
    options.worker.task_overhead = sim::milliseconds(1);
    options.service.network_aware_grouping = true;
    core::StandaloneJets jets(machine, apps, options);
    std::vector<os::NodeId> ids;
    for (std::size_t i = 0; i < nodes; ++i) ids.push_back(static_cast<os::NodeId>(i));
    jets.start(ids);
    std::vector<core::JobSpec> jobs;
    for (int i = 0; i < 64; ++i) {
      core::JobSpec s;
      s.kind = core::JobKind::kMpi;
      s.nprocs = 8;
      s.argv = {"mpi_sleep", "0.001"};
      jobs.push_back(std::move(s));
    }
    engine.spawn("driver", [](core::StandaloneJets& jets,
                              std::vector<core::JobSpec> jobs) -> sim::Task<void> {
      (void)co_await jets.run_batch(std::move(jobs));
    }(jets, std::move(jobs)));
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ServiceClaimWorkersNetworkAware)->Arg(256);

void BM_CasStorePutGet(benchmark::State& state) {
  // Host cost of the per-node CAS: digest, insert (backing write + LRU
  // bookkeeping), and touch. Capacity is half the working set, so the put
  // stream continuously evicts — the steady state of a bounded node cache.
  const auto n = static_cast<int>(state.range(0));
  constexpr std::uint64_t kBlobBytes = 1'000'000;
  for (auto _ : state) {
    sim::Engine e;
    os::LocalFs fs(sim::microseconds(10), 1e9);
    os::CasStore cas(fs, kBlobBytes * static_cast<std::uint64_t>(n) / 2);
    e.spawn("cas", [](os::CasStore& cas, int n) -> sim::Task<void> {
      for (int i = 0; i < n; ++i) {
        const std::string path = "blob_" + std::to_string(i);
        const auto d = os::cas_digest(path, kBlobBytes);
        (void)co_await cas.put(d, path, kBlobBytes);
        benchmark::DoNotOptimize(cas.touch(d));
      }
    }(cas, n));
    e.run();
    benchmark::DoNotOptimize(cas.stats().evictions);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_CasStorePutGet)->Arg(1000)->Arg(10000);

void BM_StageFanoutDedup(benchmark::State& state) {
  // Service-side bookkeeping for one staging fan-out at scale: intern each
  // blob, drive the cold wave's per-node pending -> resident transitions,
  // then the warm wave's dedup queries (residency hit + the data-aware
  // window score) — the pure table cost behind stage_inputs and
  // claim_best, with no engine or wire traffic.
  const auto nodes = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBlobs = 8;
  constexpr std::uint64_t kBlobBytes = 4'000'000;
  for (auto _ : state) {
    sim::Engine e;
    core::StageTable staging;
    core::ResidencyTable residency;
    std::vector<std::pair<core::StageDigest, std::uint64_t>> wanted;
    for (std::size_t b = 0; b < kBlobs; ++b) {
      const std::string path = "input_" + std::to_string(b);
      const auto d = os::cas_digest(path, kBlobBytes);
      (void)staging.intern(d, path, e);
      wanted.emplace_back(d, kBlobBytes);
    }
    for (std::size_t i = 0; i < nodes; ++i) {
      const auto node = static_cast<net::NodeId>(i);
      for (const auto& w : wanted) {
        residency.mark_pending(node, w.first);
        residency.commit(node, w.first);
      }
    }
    std::uint64_t warm = 0, score = 0;
    for (std::size_t i = 0; i < nodes; ++i) {
      const auto node = static_cast<net::NodeId>(i);
      for (const auto& w : wanted) {
        warm += residency.contains(node, w.first) ? 1 : 0;
      }
      score += residency.resident_bytes(node, wanted);
    }
    benchmark::DoNotOptimize(warm);
    benchmark::DoNotOptimize(score);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * kBlobs * 2);
}
BENCHMARK(BM_StageFanoutDedup)->Arg(1000)->Arg(100000);

void BM_JetsSequentialDispatch(benchmark::State& state) {
  // Host cost of simulating one full JETS task cycle (dispatch, exec,
  // done/ready) — the inner loop of the Fig 6/10 harnesses.
  for (auto _ : state) {
    sim::Engine engine;
    os::Machine machine(engine, os::Machine::breadboard(8));
    os::AppRegistry apps;
    apps.install(pmi::kProxyBinary, pmi::Mpiexec::proxy_program(apps));
    machine.shared_fs().put(pmi::kProxyBinary, 2'000'000);
    apps.install("noop", [](os::Env&) -> sim::Task<void> { co_return; });
    machine.shared_fs().put("noop", 16'384);
    core::StandaloneOptions options;
    options.worker.task_overhead = sim::milliseconds(1);
    core::StandaloneJets jets(machine, apps, options);
    jets.start({0, 1, 2, 3, 4, 5, 6, 7});
    std::vector<core::JobSpec> jobs(static_cast<std::size_t>(state.range(0)));
    for (auto& j : jobs) j.argv = {"noop"};
    engine.spawn("driver", [](core::StandaloneJets& jets,
                              std::vector<core::JobSpec> jobs) -> sim::Task<void> {
      (void)co_await jets.run_batch(std::move(jobs));
    }(jets, std::move(jobs)));
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JetsSequentialDispatch)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
