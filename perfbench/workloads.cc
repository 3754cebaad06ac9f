#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "apps/rem.hh"
#include "core/chaos.hh"
#include "core/snapshot.hh"
#include "harness.hh"
#include "ledger.hh"
#include "swift/engine.hh"

namespace perfbench {

using namespace jets;
using Clock = std::chrono::steady_clock;

void Report::add(const std::string& name, double v) {
  for (auto& [k, x] : values) {
    if (k == name) {
      x += v;
      return;
    }
  }
  set(name, v);
}

void Report::max(const std::string& name, double v) {
  for (auto& [k, x] : values) {
    if (k == name) {
      x = std::max(x, v);
      return;
    }
  }
  set(name, v);
}

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t fold_digest(std::uint64_t h, std::uint64_t d) {
  return (h ^ d) * 1099511628211ull;  // FNV-style fold, order-sensitive
}

/// Report rows of obs::PhaseTable and the span names they aggregate.
constexpr std::pair<const char*, const char*> kPhases[] = {
    {"queue", "job.queued"},     {"group", "job.group"},
    {"launch", "mpiexec.launch"}, {"pmi", "pmi.barrier"},
    {"run", "job.run"},
};

// --- Traced-run app wrappers -------------------------------------------------

/// Runs `inner` with the calling actor relabelled as `layer`. Apps and the
/// Hydra proxy run inline in a worker's task:* actor, so without this their
/// host time would land in the worker's share.
sim::Task<void> run_as(std::shared_ptr<const os::Program> inner, os::Env& env,
                       Layer layer) {
  struct Restore {
    sim::ActorId self;
    Layer prev;
    ~Restore() {
      if (Ledger* l = Ledger::active()) l->retag(self, prev);
    }
  };
  Ledger* ledger = Ledger::active();
  const sim::ActorId self = env.machine->engine().running_actor();
  Restore restore{self, ledger ? ledger->layer_of(self) : Layer::kSim};
  if (ledger) ledger->retag(self, layer);
  co_await (*inner)(env);
}

void tag_app(os::AppRegistry& apps, const std::string& name, Layer layer) {
  auto inner = std::make_shared<const os::Program>(apps.lookup(name));
  apps.install(name, [inner, layer](os::Env& env) {
    LayerScope bench(Layer::kBench);  // the wrapper frame is ours
    return run_as(inner, env, layer);
  });
}

// --- Testbeds and passes -------------------------------------------------------

/// One testbed: the figure harness's Bed plus, in a traced run, the layer
/// ledger and a span tracer. Declaration order is teardown order reversed:
/// the tracer outlives the machine whose actors close spans on it, and the
/// ledger goes before the actors whose app wrappers retag through it.
struct Testbed {
  Clock::time_point born = Clock::now();
  std::unique_ptr<obs::Tracer> tracer;
  bench::Bed bed;
  std::optional<Ledger> ledger;

  Testbed(os::MachineSpec spec, bool traced, bool spans) : bed(std::move(spec)) {
    if (!traced) return;
    ledger.emplace(bed.engine);
    tag_app(bed.apps, pmi::kProxyBinary, Layer::kPmi);
    for (const char* app : {"noop", "sleep", "namd_segment"}) {
      tag_app(bed.apps, app, Layer::kApps);
    }
    if (spans) {
      tracer = std::make_unique<obs::Tracer>(bed.engine);
      bed.machine.set_tracer(tracer.get());
    }
  }

  template <typename F>
  void run(F&& body) {
    EngineRun running;
    bed.run(std::forward<F>(body));
  }
};

struct Pass {
  explicit Pass(const PassOptions& o) : opts(o) {}

  const PassOptions& opts;
  Report report;
  double setup_s = 0;
  std::uint64_t jobs = 0;
  std::uint64_t done = 0;
  bool settled_once = true;
  std::map<std::string, std::vector<sim::Duration>> phases;

  /// Call when the testbed's batch or workflow is submitted.
  void submitted(const Testbed& tb) { setup_s += since(tb.born); }

  /// Reads the layer counters of a finished testbed.
  void harvest(Testbed& tb, const core::Service& svc) {
    const sim::Engine& e = tb.bed.engine;
    report.add("sim.events", static_cast<double>(e.events_executed()));
    report.add("sim.cancelled_events", static_cast<double>(e.cancelled_events()));
    report.add("sim.compactions", static_cast<double>(e.compactions()));
    report.max("sim.slab_high_water", static_cast<double>(e.slab_high_water()));
    const net::MessageArena& arena = tb.bed.machine.network().arena();
    report.add("net.arena.flushes", static_cast<double>(arena.flushes()));
    report.add("net.arena.coalesced", static_cast<double>(arena.coalesced()));
    report.max("net.arena.high_water", static_cast<double>(arena.high_water()));
    const obs::MetricsRegistry& m = svc.metrics();
    report.add("net.rpc.calls", static_cast<double>(m.counter_value("jets.rpc.calls")));
    report.add("net.rpc.notifies",
               static_cast<double>(m.counter_value("jets.rpc.notifies")));
    report.add("core.staging.requests", static_cast<double>(svc.stage_requests()));
    report.add("core.staging.warm_hits", static_cast<double>(svc.stage_warm_hits()));
    report.add("core.staging.pushed_bytes",
               static_cast<double>(svc.stage_bytes_pushed()));
    report.add("core.retry.scheduled", static_cast<double>(svc.retries_scheduled()));
    if (!tb.tracer) return;
    for (const obs::Span& s : tb.tracer->spans()) {
      if (!s.closed()) continue;
      for (const auto& [phase, span_name] : kPhases) {
        if (s.name == span_name) phases[phase].push_back(s.duration());
      }
    }
  }

  /// Folds the records into the digest and checks that each of the
  /// `expected` jobs (ids 1..expected) settled exactly once.
  void check(const std::vector<core::JobRecord>& records, std::size_t expected) {
    jobs += expected;
    std::vector<bool> seen(expected + 1, false);
    for (const core::JobRecord& rec : records) {
      if (rec.id < 1 || rec.id > expected || seen[rec.id] ||
          !core::job_settled(rec.status)) {
        settled_once = false;
      } else {
        seen[rec.id] = true;
      }
      if (rec.status == core::JobStatus::kDone) ++done;
      report.digest = fold_digest(report.digest, core::record_digest(rec));
    }
    if (records.size() != expected) settled_once = false;
  }
};

// --- Workloads -------------------------------------------------------------------

/// Starts one pilot per slot on `nodes`, waits for them to register (set-up
/// ends there), runs `jobs` as one batch and reads the testbed's counters.
core::BatchReport run_batch(Pass& p, Testbed& tb, core::StandaloneJets& jets,
                            std::size_t nodes,
                            const std::vector<core::JobSpec>& jobs) {
  const auto t_register = Clock::now();
  {
    LayerScope scope(Layer::kService);
    jets.start(tb.bed.nodes(nodes));
  }
  core::BatchReport report;
  tb.run([&]() -> sim::Task<void> {
    co_await jets.wait_workers();
    p.report.add("core.setup.register_s", since(t_register));
    p.submitted(tb);
    report = co_await jets.run_batch(jobs);
  });
  p.harvest(tb, jets.service());
  p.check(report.records, jobs.size());
  return report;
}

/// fig06's large-N point: one no-op flood through the dispatcher.
void seq_flood(Pass& p) {
  std::optional<LayerScope> teardown;  // set last, so released last
  const std::size_t nodes = p.opts.small ? 250 : 2'500;  // x4 workers
  Testbed tb(os::Machine::surveyor(nodes), p.opts.traced, /*spans=*/true);
  auto options = bench::surveyor_options(/*workers_per_node=*/4);
  options.worker.stage_files = {pmi::kProxyBinary, "noop"};
  core::StandaloneJets jets(tb.bed.machine, tb.bed.apps, options);
  const std::vector<core::JobSpec> jobs(nodes * 4 * 2, bench::seq_job({"noop"}));
  const core::BatchReport report = run_batch(p, tb, jets, nodes, jobs);
  const double rate =
      static_cast<double>(report.completed) / report.makespan_seconds();
  p.report.set("model.tasks_per_s", rate);
  p.report.set("model.utilization", report.utilization());
  p.report.set("model.mttr_s", 0);
  p.report.set("golden.fig06_tasks_per_s", std::round(rate));
  teardown.emplace(Layer::kTeardown);
}

/// fig09's 512-node row: 4-, 8- and 64-proc gangs of `mpi_sleep 10`, 20
/// per node. (The 1,024-node row takes ~6 s a pass, too few passes a run.)
void mpi_gang(Pass& p) {
  const std::size_t nodes = p.opts.small ? 256 : 512;
  double busy = 0, makespan = 0, completed = 0;
  for (int nproc : {4, 8, 64}) {
    std::optional<LayerScope> teardown;  // set last, so released last
    Testbed tb(os::Machine::surveyor(nodes), p.opts.traced, /*spans=*/true);
    auto options = bench::surveyor_options(/*workers_per_node=*/1);
    options.worker.stage_files = {pmi::kProxyBinary, "mpi_sleep"};
    core::StandaloneJets jets(tb.bed.machine, tb.bed.apps, options);
    const std::vector<core::JobSpec> jobs(
        nodes * 20 / static_cast<std::size_t>(nproc),
        bench::mpi_job(nproc, {"mpi_sleep", "10"}));
    const core::BatchReport report = run_batch(p, tb, jets, nodes, jobs);
    // Eq. (1) with the configured 10 s duration, as fig09 computes it.
    const double work = 10.0 * static_cast<double>(report.completed) * nproc;
    p.report.set("golden.fig09_u" + std::to_string(nproc),
                 work / (static_cast<double>(nodes) * report.makespan_seconds()));
    busy += work;
    makespan += report.makespan_seconds();
    completed += static_cast<double>(report.completed);
    teardown.emplace(Layer::kTeardown);
  }
  p.report.set("model.tasks_per_s", completed / makespan);
  p.report.set("model.utilization", busy / (static_cast<double>(nodes) * makespan));
  p.report.set("model.mttr_s", 0);
}

/// fig18(a) scaled up: single-process REM through Swift and Coasters.
void swift_rem(Pass& p) {
  std::optional<LayerScope> teardown;  // set last, so released last
  const std::size_t nodes = p.opts.small ? 64 : 1'024;
  Testbed tb(os::Machine::eureka(nodes), p.opts.traced, /*spans=*/false);
  swift::CoasterService::Config cfg;
  cfg.worker.task_overhead = bench::kX86WorkerOverhead;
  cfg.worker.stage_files = {pmi::kProxyBinary};
  cfg.workers_per_node = 1;
  cfg.service.mpi_job_overhead = sim::milliseconds(2);
  cfg.service.proxy_setup_cost = sim::milliseconds(1);
  swift::CoasterService coasters(tb.bed.machine, tb.bed.apps, cfg);
  {
    LayerScope scope(Layer::kSwift);
    coasters.start_on(tb.bed.nodes(nodes));
  }
  swift::SwiftEngine swift_engine(tb.bed.machine, coasters);
  apps::RemWorkflowConfig rem;
  rem.seed = p.opts.seed;  // segment durations
  rem.replicas = static_cast<int>(nodes) * 2;
  rem.exchanges = p.opts.small ? 4 : 16;
  const auto t_build = Clock::now();
  {
    LayerScope scope(Layer::kSwift);
    apps::build_rem_workflow(swift_engine, rem);
  }
  p.report.set("swift.build_s", since(t_build));
  p.submitted(tb);
  const sim::Time t0 = tb.bed.engine.now();
  tb.run([&]() -> sim::Task<void> { co_await swift_engine.run_to_completion(); });
  p.harvest(tb, coasters.service());
  p.check(swift_engine.job_records(),
          static_cast<std::size_t>(apps::rem_segment_count(rem)));
  const double makespan = sim::to_seconds(tb.bed.engine.now() - t0);
  double busy = 0;
  for (const auto& rec : swift_engine.job_records()) busy += rec.wall_seconds();
  p.report.set("model.tasks_per_s",
               static_cast<double>(swift_engine.job_records().size()) / makespan);
  p.report.set("model.utilization", busy / (static_cast<double>(nodes) * makespan));
  p.report.set("model.mttr_s", 0);
  teardown.emplace(Layer::kTeardown);
}

/// fig10's recover drill scaled up, with staged inputs and socket stalls.
void recover_staged(Pass& p) {
  std::optional<LayerScope> teardown;  // set last, so released last
  const std::size_t nodes = p.opts.small ? 64 : 1'024;
  const std::size_t njobs = p.opts.small ? 2'000 : 30'000;
  const sim::Time crash_at = sim::seconds(63);
  Testbed tb(os::Machine::surveyor(nodes), p.opts.traced, /*spans=*/false);
  tb.bed.machine.shared_fs().put("staged_input", 4'000'000);
  auto options = bench::surveyor_options(/*workers_per_node=*/1);
  options.worker.stage_files = {"sleep"};
  options.worker.heartbeat_interval = sim::seconds(2);
  options.service.worker_liveness_timeout = sim::seconds(5);
  options.worker.reconnect_backoff = sim::milliseconds(500);
  options.worker.reconnect_attempts = 20;
  options.service.retry.max_attempts = 100;
  options.service.retry.jitter_seed = p.opts.seed;
  core::StandaloneJets jets(tb.bed.machine, tb.bed.apps, options);
  const auto t_register = Clock::now();
  {
    LayerScope scope(Layer::kService);
    jets.start(tb.bed.nodes(nodes));
  }

  // Mostly 1 s tasks plus a 9 s stripe that outlives the crash outage, all
  // naming one shared staged input.
  std::vector<core::JobSpec> jobs;
  jobs.reserve(njobs);
  for (std::size_t i = 0; i < njobs; ++i) {
    core::JobSpec spec = bench::seq_job({"sleep", i % 6 == 0 ? "9" : "1"});
    spec.stage_files = {"staged_input"};
    jobs.push_back(std::move(spec));
  }

  struct Snapshots {
    std::vector<std::uint8_t> latest;  // only the newest is kept alive
    double encode_s = 0;
    double decode_s = 0;
    std::size_t max_bytes = 0;
  } snaps;
  core::ChaosEngine chaos(tb.bed.machine, sim::Rng(p.opts.seed).fork("recover"));
  chaos.add_periodic(core::FaultKind::kSocketStall, sim::seconds(10),
                     sim::seconds(10), 60, sim::seconds(30));
  chaos.set_service_crash(
      [&] {
        LayerScope scope(Layer::kService);
        jets.crash_service();
      },
      [&] {
        LayerScope scope(Layer::kService);
        const auto t = Clock::now();
        jets.restore_service(core::Snapshot::parse(snaps.latest));
        snaps.decode_s += since(t);
      });
  core::Fault crash;
  crash.at = crash_at;
  crash.kind = core::FaultKind::kServiceCrash;
  crash.duration = sim::seconds(3);
  chaos.add(crash);

  tb.bed.engine.spawn(
      "bench-driver",
      [](Pass& p, Testbed& tb, core::StandaloneJets& jets,
         const std::vector<core::JobSpec>& jobs, core::ChaosEngine& chaos,
         Clock::time_point t_register) -> sim::Task<void> {
        co_await jets.wait_workers();
        p.report.add("core.setup.register_s", since(t_register));
        p.submitted(tb);
        jets.service().submit_batch(jobs);
        chaos.start();
      }(p, tb, jets, jobs, chaos, t_register));
  tb.bed.engine.spawn(
      "bench-checkpointer",
      [](core::StandaloneJets& jets, Snapshots& snaps) -> sim::Task<void> {
        for (;;) {
          co_await sim::delay(sim::seconds(15));
          if (!jets.service_up()) continue;
          LayerScope scope(Layer::kService);
          const auto t = Clock::now();
          snaps.latest = jets.checkpoint().serialize();
          snaps.encode_s += since(t);
          snaps.max_bytes = std::max(snaps.max_bytes, snaps.latest.size());
        }
      }(jets, snaps));

  // Sample once per modelled second; MTTR is the time from the crash until
  // the restored service again holds as many workers as just before it.
  std::size_t connected_before = 0;
  double mttr_s = -1;
  bool settled = false;
  for (int t = 1; t <= 7'200 && !settled; ++t) {
    {
      EngineRun running;
      tb.bed.engine.run_until(sim::seconds(t));
    }
    if (!jets.service_up()) continue;
    const core::Service& svc = jets.service();
    if (sim::seconds(t) < crash_at) {
      connected_before = svc.connected_workers();
    } else if (mttr_s < 0 && svc.connected_workers() >= connected_before) {
      mttr_s = sim::to_seconds(sim::seconds(t) - crash_at);
    }
    settled = svc.completed_jobs() + svc.failed_jobs() + svc.quarantined_jobs() >=
              njobs;
  }
  if (!jets.service_up()) throw std::runtime_error("recover_staged: service down at end");
  const core::Service& svc = jets.service();
  p.harvest(tb, svc);
  const std::vector<core::JobRecord> records = svc.records();
  p.check(records, njobs);
  const double makespan = sim::to_seconds(tb.bed.engine.now());
  double busy = 0;
  for (const auto& rec : records) busy += rec.wall_seconds();
  p.report.set("model.tasks_per_s", static_cast<double>(svc.completed_jobs()) / makespan);
  p.report.set("model.utilization", busy / (static_cast<double>(nodes) * makespan));
  p.report.set("model.mttr_s", mttr_s);
  p.report.set("core.snapshot.encode_s", snaps.encode_s);
  p.report.set("core.snapshot.decode_s", snaps.decode_s);
  p.report.set("core.snapshot.mb", static_cast<double>(snaps.max_bytes) / 1e6);
  teardown.emplace(Layer::kTeardown);
}

/// Nearest-rank percentile in milliseconds of modelled time.
double percentile_ms(std::vector<sim::Duration>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return sim::to_seconds(v[std::max<std::size_t>(rank, 1) - 1]) * 1e3;
}

}  // namespace

Report run_pass(const PassOptions& opts) {
  Pass p(opts);
  const auto t0 = Clock::now();
  const std::uint64_t allocs0 = alloc_count();
  {
    std::optional<Tracing> tracing;
    if (opts.traced) tracing.emplace(/*interval_us=*/500);
    if (opts.workload == "seq_flood") {
      seq_flood(p);
    } else if (opts.workload == "mpi_gang") {
      mpi_gang(p);
    } else if (opts.workload == "swift_rem") {
      swift_rem(p);
    } else if (opts.workload == "recover_staged") {
      recover_staged(p);
    } else {
      throw std::invalid_argument("unknown workload: " + opts.workload);
    }
  }
  Report& r = p.report;
  r.set("wall_s", since(t0));
  r.set("setup_s", p.setup_s);
  r.set("allocs", static_cast<double>(alloc_count() - allocs0));
  r.set("jobs", static_cast<double>(p.jobs));
  r.set("done", static_cast<double>(p.done));
  r.set("settled_once", p.settled_once ? 1 : 0);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  if (opts.traced) {
    const LayerTotals totals = layer_totals();
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      const std::string name = layer_name(static_cast<Layer>(i));
      r.set("layer." + name + ".allocs", static_cast<double>(totals.allocs[i]));
      r.set("layer." + name + ".samples", static_cast<double>(totals.samples[i]));
    }
    for (const auto& [phase, span_name] : kPhases) {
      auto& v = p.phases[phase];
      r.set(std::string("model.phase.") + phase + ".p50_ms", percentile_ms(v, 0.50));
      r.set(std::string("model.phase.") + phase + ".p99_ms", percentile_ms(v, 0.99));
    }
  }
  return p.report;
}

}  // namespace perfbench
