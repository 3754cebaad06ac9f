// Metrics-registry tests (src/obs/metrics.hh) and the counter-migration
// regression suite: every former ad-hoc core::Service counter must read
// identically through the service accessor and through its registry
// successor's stable dotted name, across the fig10 fault spectrum
// (kill/hang/stall/launch). The chaos layer's mirrored counters are held
// to the same standard.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/synthetic.hh"
#include "core/chaos.hh"
#include "core/standalone.hh"
#include "obs/metrics.hh"
#include "testbed.hh"

namespace jets {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;

// --- Instrument mechanics ----------------------------------------------------

TEST(Metrics, CounterAndGaugeSemantics) {
  Counter c;
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value, 5u);

  Gauge g;
  g.set(7);
  g.add(-3);
  EXPECT_EQ(g.value, 4);
  g.add(-10);
  EXPECT_EQ(g.value, -6);  // gauges may go negative; counters never decrement
}

TEST(Metrics, HistogramBucketEdges) {
  Histogram h;
  h.observe(0);     // bucket 0: exact zeros
  h.observe(1);     // bucket 1: [1, 2)
  h.observe(2);     // bucket 2: [2, 4)
  h.observe(3);     // bucket 2
  h.observe(4);     // bucket 3: [4, 8)
  h.observe(-5);    // clamped to 0 -> bucket 0
  h.observe(1024);  // bucket 11: [1024, 2048)

  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(11), 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 0 + 1 + 2 + 3 + 4 + 0 + 1024);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 1024);
  EXPECT_DOUBLE_EQ(h.mean(), 1034.0 / 7.0);
}

TEST(Metrics, HistogramQuantileUpperBound) {
  Histogram empty;
  EXPECT_EQ(empty.quantile_upper_bound(0.5), 0);

  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  // Crossing semantics: the upper edge of the bucket where the cumulative
  // count reaches q * count. Monotone in q, pow-2 resolution.
  EXPECT_EQ(h.quantile_upper_bound(0.25), 0);
  EXPECT_EQ(h.quantile_upper_bound(0.5), 1);
  EXPECT_EQ(h.quantile_upper_bound(0.75), 3);
  EXPECT_EQ(h.quantile_upper_bound(1.0), 3);
  EXPECT_EQ(h.quantile_upper_bound(-1.0), h.quantile_upper_bound(0.0));
  EXPECT_EQ(h.quantile_upper_bound(2.0), 3);
}

TEST(Metrics, RegistryGetOrCreateKeepsStableAddresses) {
  MetricsRegistry reg;
  Counter* c = &reg.counter("a.counter");
  Gauge* g = &reg.gauge("a.gauge");
  Histogram* h = &reg.histogram("a.histogram");
  // Interleave enough registrations to force rebalancing in a non-node
  // container; std::map storage must keep the originals pinned.
  for (int i = 0; i < 64; ++i) {
    reg.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(c, &reg.counter("a.counter"));
  EXPECT_EQ(g, &reg.gauge("a.gauge"));
  EXPECT_EQ(h, &reg.histogram("a.histogram"));
  EXPECT_EQ(reg.instrument_count(), 64u + 3u);
}

TEST(Metrics, ReadOnlyLookupsNeverCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.counter_value("missing"), 0u);
  EXPECT_EQ(reg.gauge_value("missing"), 0);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
  EXPECT_EQ(reg.instrument_count(), 0u);

  reg.counter("present").inc(3);
  EXPECT_EQ(reg.counter_value("present"), 3u);
  EXPECT_EQ(reg.instrument_count(), 1u);
}

TEST(Metrics, SnapshotIsSortedAndStable) {
  MetricsRegistry reg;
  reg.counter("z.last").inc(2);
  reg.counter("a.first").inc(1);
  reg.gauge("m.level").set(-4);
  reg.histogram("h.dist").observe(5);
  reg.histogram("h.dist").observe(9);

  EXPECT_EQ(reg.snapshot(),
            "counter a.first 1\n"
            "counter z.last 2\n"
            "gauge m.level -4\n"
            "histogram h.dist count=2 sum=14 min=5 max=9\n");
}

// --- Service counter migration across the fault spectrum ---------------------

struct MetricsBed : test::TestBed {
  explicit MetricsBed(os::MachineSpec spec) : TestBed(std::move(spec)) {
    apps::install_synthetic_apps(apps);
    machine.shared_fs().put("sleep", 16'384);
    machine.shared_fs().put("mpi_sleep", 1'500'000);
  }

  static std::vector<os::NodeId> nodes(std::size_t n) {
    std::vector<os::NodeId> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<os::NodeId>(i));
    return v;
  }
};

core::JobSpec seq_job(std::vector<std::string> argv) {
  core::JobSpec s;
  s.argv = std::move(argv);
  return s;
}

core::JobSpec mpi_job(int nprocs, std::vector<std::string> argv) {
  core::JobSpec s;
  s.kind = core::JobKind::kMpi;
  s.nprocs = nprocs;
  s.argv = std::move(argv);
  return s;
}

struct SpectrumScenario {
  const char* label;
  core::FaultKind kind;
  sim::Duration fault_duration = 0;
  bool heartbeats = false;
  bool mpi = false;
};

/// Asserts that every former Service counter reads identically through the
/// accessor and through its "jets.service.*" registry successor.
void expect_accessors_match_registry(const core::Service& s,
                                     const MetricsRegistry& reg) {
  EXPECT_EQ(s.completed_jobs(), reg.counter_value("jets.service.jobs.completed"));
  EXPECT_EQ(s.failed_jobs(), reg.counter_value("jets.service.jobs.failed"));
  EXPECT_EQ(s.quarantined_jobs(),
            reg.counter_value("jets.service.jobs.quarantined"));
  EXPECT_EQ(s.evicted_workers(),
            reg.counter_value("jets.service.workers.evicted"));
  EXPECT_EQ(s.reenlisted_workers(),
            reg.counter_value("jets.service.workers.reenlisted"));
  EXPECT_EQ(s.heartbeats_received(),
            reg.counter_value("jets.service.workers.heartbeats"));
  EXPECT_EQ(s.blacklist_rejections(),
            reg.counter_value("jets.service.blacklist.rejections"));
  EXPECT_EQ(s.blacklist_paroles(),
            reg.counter_value("jets.service.blacklist.paroles"));
  EXPECT_EQ(s.retries_scheduled(),
            reg.counter_value("jets.service.retry.scheduled"));
  for (std::size_t i = 0; i < core::kFailureReasonCount; ++i) {
    const auto reason = static_cast<core::FailureReason>(i);
    EXPECT_EQ(s.failures_by_reason(reason),
              reg.counter_value(std::string("jets.service.failures.") +
                                core::to_string(reason)))
        << core::to_string(reason);
  }
  // Live gauges mirror the sampled accessors.
  EXPECT_EQ(static_cast<std::int64_t>(s.connected_workers()),
            reg.gauge_value("jets.service.workers.connected"));
  EXPECT_EQ(static_cast<std::int64_t>(s.running_jobs()),
            reg.gauge_value("jets.service.jobs.running"));
}

/// Scaled-down fig10: 8 workers, a job stream, four periodic faults of one
/// kind, the chaos layer reporting into the service's registry.
void run_spectrum(const SpectrumScenario& sc) {
  SCOPED_TRACE(sc.label);
  constexpr std::size_t kNodes = 8;
  MetricsBed bed(os::Machine::breadboard(kNodes));

  core::StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  options.worker.stage_files = {pmi::kProxyBinary, "sleep", "mpi_sleep"};
  options.service.retry.max_attempts = 10;
  auto hang_registry = std::make_shared<core::WorkerHangRegistry>();
  options.worker.hang_registry = hang_registry;
  if (sc.heartbeats) {
    options.worker.heartbeat_interval = sim::milliseconds(500);
    options.service.worker_liveness_timeout = sim::seconds(2);
  }
  if (sc.mpi) {
    options.service.mpi_launch_timeout = sim::seconds(3);
    options.service.retry.infra_exempt = true;
  }
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(MetricsBed::nodes(kNodes));
  // Chaos reports into the service's registry, so one snapshot has both.
  MetricsRegistry& registry = jets.service().metrics();

  std::vector<core::JobSpec> jobs;
  for (int i = 0; i < 24; ++i) {
    jobs.push_back(sc.mpi ? mpi_job(2, {"mpi_sleep", "1"})
                          : seq_job({"sleep", "1"}));
  }

  core::ChaosEngine chaos(bed.machine, sim::Rng(2011).fork(sc.label));
  chaos.attach_metrics(registry);
  chaos.set_pilots(jets.worker_pids());
  chaos.set_hang_registry(hang_registry);
  chaos.add_periodic(sc.kind, sim::seconds(2), sim::seconds(2), 4,
                     sc.fault_duration);

  bed.engine.spawn("driver",
                   [](core::StandaloneJets& jets, core::ChaosEngine& chaos,
                      std::vector<core::JobSpec> jobs) -> sim::Task<void> {
                     co_await jets.wait_workers();
                     chaos.start();
                     co_await jets.run_batch(std::move(jobs));
                   }(jets, chaos, std::move(jobs)));
  bed.engine.run_until(sim::seconds(600));
  ASSERT_LT(bed.engine.now(), sim::seconds(600)) << "batch did not settle";

  const core::Service& service = jets.service();
  expect_accessors_match_registry(service, registry);

  // The batch settled completely, and settlement is visible in the registry.
  EXPECT_EQ(registry.counter_value("jets.service.jobs.completed") +
                registry.counter_value("jets.service.jobs.failed") +
                registry.counter_value("jets.service.jobs.quarantined"),
            24u);

  // Chaos mirrors every ChaosCounters field under "jets.chaos.*".
  const core::ChaosCounters& c = chaos.counters();
  EXPECT_EQ(c.pilots_killed, registry.counter_value("jets.chaos.pilots_killed"));
  EXPECT_EQ(c.connections_reset,
            registry.counter_value("jets.chaos.connections_reset"));
  EXPECT_EQ(c.nodes_stalled, registry.counter_value("jets.chaos.nodes_stalled"));
  EXPECT_EQ(c.workers_hung, registry.counter_value("jets.chaos.workers_hung"));
  EXPECT_EQ(c.workers_released,
            registry.counter_value("jets.chaos.workers_released"));
  EXPECT_EQ(c.nodes_degraded,
            registry.counter_value("jets.chaos.nodes_degraded"));

  // Latency histograms: one queue-wait sample per first placement, one
  // wall-time sample per settled job.
  const Histogram* queue_wait =
      registry.find_histogram("jets.service.queue_wait_ns");
  const Histogram* job_wall =
      registry.find_histogram("jets.service.job_wall_ns");
  ASSERT_NE(queue_wait, nullptr);
  ASSERT_NE(job_wall, nullptr);
  EXPECT_GT(queue_wait->count(), 0u);
  EXPECT_EQ(job_wall->count(), 24u);
  EXPECT_GE(job_wall->max(), job_wall->min());

  // The scenario actually exercised its fault class.
  switch (sc.kind) {
    case core::FaultKind::kKillPilot:
      EXPECT_GT(registry.counter_value("jets.chaos.pilots_killed"), 0u);
      break;
    case core::FaultKind::kHangWorker:
      EXPECT_GT(registry.counter_value("jets.chaos.workers_hung"), 0u);
      break;
    case core::FaultKind::kSocketStall:
      EXPECT_GT(registry.counter_value("jets.chaos.nodes_stalled"), 0u);
      break;
    default:
      break;
  }
}

TEST(MetricsMigration, KillSpectrum) {
  run_spectrum({"kill", core::FaultKind::kKillPilot});
}

TEST(MetricsMigration, HangSpectrum) {
  run_spectrum({"hang", core::FaultKind::kHangWorker, sim::seconds(4),
                /*heartbeats=*/true});
}

TEST(MetricsMigration, StallSpectrum) {
  run_spectrum({"stall", core::FaultKind::kSocketStall, sim::seconds(4),
                /*heartbeats=*/true});
}

TEST(MetricsMigration, LaunchSpectrum) {
  run_spectrum({"launch", core::FaultKind::kHangWorker, sim::seconds(4),
                /*heartbeats=*/true, /*mpi=*/true});
}

// --- The service's own registry and snapshot determinism ---------------------

TEST(MetricsMigration, ServiceOwnsARegistryWhenNoneIsSupplied) {
  MetricsBed bed(os::Machine::breadboard(2));
  core::StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(MetricsBed::nodes(2));

  std::vector<core::JobSpec> jobs(4, seq_job({"sleep", "1"}));
  bed.engine.spawn("driver",
                   [](core::StandaloneJets& jets,
                      std::vector<core::JobSpec> jobs) -> sim::Task<void> {
                     co_await jets.wait_workers();
                     co_await jets.run_batch(std::move(jobs));
                   }(jets, std::move(jobs)));
  bed.engine.run();

  const core::Service& service = jets.service();
  expect_accessors_match_registry(service, service.metrics());
  EXPECT_EQ(service.completed_jobs(), 4u);
  // Every instrument is pre-registered at construction, so the snapshot
  // names the full schema even for counters that never fired.
  const std::string snap = service.metrics().snapshot();
  EXPECT_NE(snap.find("counter jets.service.jobs.completed 4\n"),
            std::string::npos);
  EXPECT_NE(snap.find("counter jets.service.failures.launch-timeout 0\n"),
            std::string::npos);
  EXPECT_NE(snap.find("gauge jets.service.workers.connected 2\n"),
            std::string::npos);
  EXPECT_NE(snap.find("histogram jets.service.job_wall_ns count=4"),
            std::string::npos);
}

std::string spectrum_snapshot(std::uint64_t seed) {
  MetricsBed bed(os::Machine::breadboard(4));
  core::StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  options.service.retry.max_attempts = 10;
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(MetricsBed::nodes(4));
  MetricsRegistry& registry = jets.service().metrics();

  std::vector<core::JobSpec> jobs(12, seq_job({"sleep", "1"}));
  core::ChaosEngine chaos(bed.machine, sim::Rng(seed));
  chaos.attach_metrics(registry);
  chaos.set_pilots(jets.worker_pids());
  chaos.add_periodic(core::FaultKind::kKillPilot, sim::seconds(2),
                     sim::seconds(2), 2);
  bed.engine.spawn("driver",
                   [](core::StandaloneJets& jets, core::ChaosEngine& chaos,
                      std::vector<core::JobSpec> jobs) -> sim::Task<void> {
                     co_await jets.wait_workers();
                     chaos.start();
                     co_await jets.run_batch(std::move(jobs));
                   }(jets, chaos, std::move(jobs)));
  bed.engine.run_until(sim::seconds(600));
  return registry.snapshot();
}

TEST(MetricsMigration, SameSeedRunsSnapshotIdentically) {
  const std::string a = spectrum_snapshot(5);
  const std::string b = spectrum_snapshot(5);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace jets
