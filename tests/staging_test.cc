// Input-staging suite (ctest label "staging"): the CAS blob store
// (os/cas.hh), the replication planner (net/staging.hh; the stage-in wire
// codec is pinned in rpc_test), the service-side staging tables
// (core/staging.hh), and the end-to-end dedup path through
// Service::stage_inputs. The invariants:
//
//   * digests round-trip through their wire text; malformed text is
//     refused rather than read as a digest;
//   * a bounded CasStore never evicts pinned or recently-used entries
//     before older unpinned ones, and reports every eviction;
//   * a batch of jobs sharing stage_files pushes each distinct blob to a
//     node once — later jobs ride warm cache (the ≥10x ablation claim);
//   * a worker lost mid-stage neither strands the stage gate (the batch
//     still settles) nor poisons the residency view;
//   * staging machinery off or unused is byte-invisible: identical record
//     digests with the knobs on or off when no job names stage_files, and
//     two identical warm runs are digest- and counter-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/snapshot.hh"
#include "core/staging.hh"
#include "core/standalone.hh"
#include "net/rpc.hh"
#include "net/staging.hh"
#include "os/cas.hh"
#include "testutil.hh"

namespace jets::core {
namespace {

using test::mpi_job;
using test::seq_job;

// --- Digests ----------------------------------------------------------------

TEST(CasDigest, DistinctIdentitiesDistinctDigests) {
  const auto a = os::cas_digest("input_a", 1'000);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(a, os::cas_digest("input_a", 1'000));
  EXPECT_NE(a, os::cas_digest("input_a", 1'001));
  EXPECT_NE(a, os::cas_digest("input_b", 1'000));
}

TEST(CasDigest, HexRoundTrip) {
  const auto d = os::cas_digest("some/path", 123'456);
  const std::string hex = net::hex16(d);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(net::parse_hex16(hex), d);
  // Malformed input is refused, not read as some digest.
  EXPECT_EQ(net::parse_hex16(""), std::nullopt);
  EXPECT_EQ(net::parse_hex16("zz"), std::nullopt);
  EXPECT_EQ(net::parse_hex16("123"), std::nullopt);
  EXPECT_EQ(net::parse_hex16("0123456789abcdefff"), std::nullopt);
  EXPECT_EQ(net::parse_hex16("0123456789ABCDEF"), std::nullopt);
}

// --- The replication planner -------------------------------------------------

TEST(StagePlan, PeerBeatsServicePushAcrossTheTorus) {
  // BG/P shape: the service sits service_hops away, peers one hop.
  net::TorusTcpFabric fabric;
  const net::NodeId service = fabric.shape().size();  // login node
  const std::vector<net::NodeId> holders = {4, 6};
  const auto plan = net::plan_transfer(fabric, service, 5, holders, 1'000'000);
  EXPECT_TRUE(plan.use_peer);
  EXPECT_EQ(plan.peer, 4u);  // equal-cost peers: lowest id wins
  EXPECT_EQ(plan.cost, fabric.transfer_time(4, 5, 1'000'000));
}

TEST(StagePlan, PeerWinsCostTies) {
  // Flat Ethernet: every pair costs the same, so peer-vs-push is a tie —
  // the peer still wins (spares the service's uplink).
  net::EthernetFabric fabric;
  const std::vector<net::NodeId> holders = {7};
  const auto plan = net::plan_transfer(fabric, 9, 5, holders, 4'096);
  EXPECT_TRUE(plan.use_peer);
  EXPECT_EQ(plan.peer, 7u);
}

TEST(StagePlan, NoHoldersMeansPush) {
  net::EthernetFabric fabric;
  const auto plan = net::plan_transfer(fabric, 9, 5, {}, 4'096);
  EXPECT_FALSE(plan.use_peer);
  EXPECT_EQ(plan.cost, fabric.transfer_time(9, 5, 4'096));
}

// --- CasStore: LRU bounds, pinning, stats ------------------------------------

TEST(CasStore, LruEvictionRespectsBoundsTouchesAndPins) {
  sim::Engine engine;
  os::LocalFs fs(sim::microseconds(20), 1.5e9);
  os::CasStore cas(fs, /*capacity_bytes=*/3'000'000);
  constexpr std::uint64_t kMb = 1'000'000;

  engine.spawn("cas-driver", [](os::CasStore& cas) -> sim::Task<void> {
    const auto d = [](const char* p) { return os::cas_digest(p, kMb); };
    (void)co_await cas.put(d("a"), "a", kMb);
    (void)co_await cas.put(d("b"), "b", kMb);
    (void)co_await cas.put(d("c"), "c", kMb);
    EXPECT_EQ(cas.stored_bytes(), 3 * kMb);

    // Touch A so B is now least-recently-used; D's insertion evicts B.
    EXPECT_TRUE(cas.touch(d("a")));
    const auto evicted1 = co_await cas.put(d("d"), "d", kMb);
    EXPECT_EQ(evicted1, std::vector<os::CasDigest>{d("b")});
    EXPECT_TRUE(cas.contains(d("a")));
    EXPECT_FALSE(cas.contains(d("b")));
    EXPECT_LE(cas.stored_bytes(), cas.capacity());

    // Re-putting a resident digest is a pure hit: nothing evicted.
    const auto evicted2 = co_await cas.put(d("a"), "a", kMb);
    EXPECT_TRUE(evicted2.empty());

    // C is now the LRU entry but pinned, so E's insertion skips it and
    // takes D instead.
    cas.pin(d("c"));
    const auto evicted3 = co_await cas.put(d("e"), "e", kMb);
    EXPECT_EQ(evicted3, std::vector<os::CasDigest>{d("d")});
    EXPECT_TRUE(cas.contains(d("c")));
    cas.unpin(d("c"));

    EXPECT_FALSE(cas.touch(d("b")));  // miss counts, no side effects
    EXPECT_EQ(cas.entries(), 3u);     // a, c, e
    EXPECT_EQ(cas.stats().insertions, 5u);
    EXPECT_EQ(cas.stats().evictions, 2u);
    EXPECT_EQ(cas.stats().hits, 2u);    // touch(a) + put(a) hit
    EXPECT_EQ(cas.stats().misses, 1u);  // touch(b)
  }(cas));
  engine.run();
}

// --- The staging tables ------------------------------------------------------

TEST(StageTable, InternIsIdempotentPerDigest) {
  sim::Engine engine;
  StageTable t;
  const auto d1 = os::cas_digest("x", 10);
  const auto d2 = os::cas_digest("y", 10);
  const auto s1 = t.intern(d1, "x", engine);
  EXPECT_EQ(t.intern(d1, "x", engine), s1);
  const auto s2 = t.intern(d2, "y", engine);
  EXPECT_NE(s1, s2);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.find(d1), s1);
  EXPECT_EQ(t.find(os::cas_digest("z", 10)), StageTable::kNone);
  EXPECT_EQ(t.digest(s2), d2);
  EXPECT_EQ(t.path(s2), "y");
  EXPECT_TRUE(t.gate(s1).is_open());  // nothing outstanding yet
}

TEST(ResidencyTable, PendingCommitRemoveAndHolders) {
  ResidencyTable r;
  const auto d = os::cas_digest("blob", 5'000);
  const std::vector<std::pair<StageDigest, std::uint64_t>> wanted = {
      {d, 5'000}};

  EXPECT_FALSE(r.contains(2, d));
  r.mark_pending(2, d);
  EXPECT_TRUE(r.pending(2, d));
  EXPECT_FALSE(r.contains(2, d));
  // In-flight data scores as resident — it will be there when the job runs.
  EXPECT_EQ(r.resident_bytes(2, wanted), 5'000u);
  EXPECT_EQ(r.resident_bytes(3, wanted), 0u);

  r.commit(2, d);
  EXPECT_TRUE(r.contains(2, d));
  EXPECT_FALSE(r.pending(2, d));
  r.commit(7, d);
  r.commit(5, d);
  const auto holders = r.holders(d);
  ASSERT_EQ(holders.size(), 3u);  // ascending: the planner's tie-break order
  EXPECT_EQ(holders[0], 2u);
  EXPECT_EQ(holders[1], 5u);
  EXPECT_EQ(holders[2], 7u);

  r.remove(5, d);
  EXPECT_FALSE(r.contains(5, d));
  EXPECT_EQ(r.holders(d).size(), 2u);
  r.remove(2, d);
  r.remove(7, d);
  EXPECT_TRUE(r.holders(d).empty());

  // Clearing a pending entry (worker lost mid-stage) never commits it.
  r.mark_pending(9, d);
  r.clear_pending(9, d);
  EXPECT_FALSE(r.pending(9, d));
  EXPECT_EQ(r.resident_bytes(9, wanted), 0u);
}

// --- End-to-end: dedup, peer copies, eviction reports, fault recovery --------

struct StagingBed : test::ServiceBed {
  explicit StagingBed(os::MachineSpec spec)
      : ServiceBed(std::move(spec),
                   {{"sleep", 16'384}, {"mpi_sleep", 1'500'000}}) {}
  explicit StagingBed(std::size_t nodes)
      : StagingBed(os::Machine::breadboard(nodes)) {}
};

std::uint64_t fold_records(const BatchReport& report) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& rec : report.records) {
    h = (h ^ record_digest(rec)) * 1099511628211ull;
  }
  return h;
}

TEST(StagingService, DedupAcrossJobsSharingInputs) {
  // Eight width-4 gangs, all naming the same two blobs: the first fan-out
  // pushes each blob to each node once; every later job is all warm hits.
  constexpr std::size_t kNodes = 4;
  StagingBed bed(kNodes);
  bed.machine.shared_fs().put("ens_a", 8'000'000);
  bed.machine.shared_fs().put("ens_b", 2'000'000);
  StandaloneJets jets(bed.machine, bed.apps, StagingBed::fast_options());
  StagingBed::enlist(jets, kNodes);

  JobSpec spec = mpi_job(4, {"mpi_sleep", "1"});
  spec.stage_files = {"ens_a", "ens_b"};
  std::vector<JobSpec> jobs(8, spec);
  const auto report = bed.run_chaos(jets, nullptr, std::move(jobs));

  EXPECT_EQ(report.completed, 8u);
  const Service& svc = jets.service();
  EXPECT_EQ(svc.stage_requests(), 8u * kNodes * 2);
  EXPECT_EQ(svc.stage_pushes(), kNodes * 2);  // cold fan-out only
  EXPECT_EQ(svc.stage_warm_hits(), 7u * kNodes * 2);
  EXPECT_EQ(svc.stage_bytes_pushed(), kNodes * 10'000'000u);
  EXPECT_EQ(svc.stage_bytes_saved(), 7u * kNodes * 10'000'000u);
  EXPECT_EQ(svc.stage_acks_lost(), 0u);
}

TEST(StagingService, PeerCopyServesNodesTheServiceAlreadyFed) {
  // Job 1 (width 2) warms nodes {0,1}; job 2 (width 4) needs the blob on
  // {2,3} too — those come from peers, not the service (flat Ethernet:
  // peer wins the cost tie).
  constexpr std::size_t kNodes = 4;
  StagingBed bed(kNodes);
  bed.machine.shared_fs().put("ens_a", 8'000'000);
  StandaloneJets jets(bed.machine, bed.apps, StagingBed::fast_options());
  StagingBed::enlist(jets, kNodes);

  JobSpec narrow = mpi_job(2, {"mpi_sleep", "1"});
  narrow.stage_files = {"ens_a"};
  JobSpec wide = mpi_job(4, {"mpi_sleep", "1"});
  wide.stage_files = {"ens_a"};

  auto r1 = bed.run_chaos(jets, nullptr, {narrow});
  EXPECT_EQ(r1.completed, 1u);
  auto r2 = bed.run_chaos(jets, nullptr, {wide});
  EXPECT_EQ(r2.completed, 1u);

  const Service& svc = jets.service();
  EXPECT_EQ(svc.stage_pushes(), 2u);       // job 1: nodes 0 and 1
  EXPECT_EQ(svc.stage_warm_hits(), 2u);    // job 2: nodes 0 and 1
  EXPECT_EQ(svc.stage_peer_copies(), 2u);  // job 2: nodes 2 and 3
  EXPECT_EQ(svc.stage_bytes_pushed(), 2u * 8'000'000);
}

TEST(StagingService, EvictionReportsKeepResidencyHonest) {
  // A 5 MB node cache and alternating 4 MB blobs: every stage-in evicts
  // the previous blob, the acks report it, and the service re-pushes
  // rather than trusting a stale residency entry.
  os::MachineSpec spec = os::Machine::breadboard(1);
  spec.node.cas_capacity = 5'000'000;
  StagingBed bed(std::move(spec));
  bed.machine.shared_fs().put("blob_a", 4'000'000);
  bed.machine.shared_fs().put("blob_b", 4'000'000);
  StandaloneJets jets(bed.machine, bed.apps, StagingBed::fast_options());
  StagingBed::enlist(jets, 1);

  JobSpec a = seq_job({"sleep", "1"});
  a.stage_files = {"blob_a"};
  JobSpec b = seq_job({"sleep", "1"});
  b.stage_files = {"blob_b"};
  const auto report = bed.run_chaos(jets, nullptr, {a, b, a});

  EXPECT_EQ(report.completed, 3u);
  const Service& svc = jets.service();
  EXPECT_EQ(svc.stage_pushes(), 3u);  // a, b, a again after b evicted it
  EXPECT_EQ(svc.stage_warm_hits(), 0u);
  EXPECT_EQ(svc.stage_evictions(), 2u);  // b evicts a, then a evicts b
}

TEST(StagingService, WorkerLostMidStageDoesNotStrandTheBatch) {
  // The S1 regression: a pilot dies while a push is on the wire. The
  // service must decrement the stage gate for the dead worker (not wait
  // forever), fail the attempt, and retry on the surviving pilot.
  constexpr std::size_t kNodes = 2;
  StagingBed bed(kNodes);
  bed.machine.shared_fs().put("big_input", 200'000'000);  // ~1.6 s push
  StandaloneJets jets(bed.machine, bed.apps, StagingBed::fast_options());
  StagingBed::enlist(jets, kNodes);

  JobSpec spec = seq_job({"sleep", "1"});
  spec.stage_files = {"big_input"};

  BatchReport report;
  bed.engine.spawn(
      "driver",
      [](StandaloneJets& jets, os::Machine& machine, JobSpec spec,
         BatchReport& out) -> sim::Task<void> {
        co_await jets.wait_workers();
        // Kill the assigned pilot once the stage-in is in flight.
        machine.engine().spawn(
            "killer", [](StandaloneJets& jets,
                         os::Machine& machine) -> sim::Task<void> {
              co_await sim::delay(sim::milliseconds(500));
              const JobRecord& rec = jets.service().record(1);
              EXPECT_EQ(rec.nodes.size(), 1u) << "job not dispatched yet";
              if (!rec.nodes.empty()) {
                machine.kill(jets.worker_pids()[rec.nodes[0]]);
              }
            }(jets, machine));
        std::vector<JobSpec> batch;
        batch.push_back(std::move(spec));
        out = co_await jets.run_batch(std::move(batch));
      }(jets, bed.machine, std::move(spec), report));
  bed.engine.run_until(sim::seconds(600));
  ASSERT_LT(bed.engine.now(), sim::seconds(600)) << "batch did not settle";

  EXPECT_EQ(report.completed, 1u);
  const Service& svc = jets.service();
  EXPECT_EQ(svc.stage_acks_lost(), 1u);
  EXPECT_EQ(svc.stage_pushes(), 2u);  // the retry re-stages from scratch
}

TEST(StagingService, AckFromUnregisteredConnectionChangesNothing) {
  // A connection that never sent "reg" acks the blob a real job's push is
  // still carrying. It staged nothing, so its ack must not open the job's
  // stage gate early: the job's record is the same with or without it.
  const auto run = [](bool stray_ack) {
    StagingBed bed(1);
    bed.machine.shared_fs().put("big_input", 200'000'000);  // ~1.6 s push
    StandaloneJets jets(bed.machine, bed.apps, StagingBed::fast_options());
    StagingBed::enlist(jets, 1);
    JobSpec spec = seq_job({"sleep", "1"});
    spec.stage_files = {"big_input"};
    BatchReport report;
    bed.engine.spawn(
        "driver",
        [](StandaloneJets& jets, os::Machine& machine, JobSpec spec,
           bool stray_ack, BatchReport& out) -> sim::Task<void> {
          co_await jets.wait_workers();
          machine.engine().spawn(
              "stranger",
              [](os::Machine& machine, net::Address service,
                 bool stray_ack) -> sim::Task<void> {
                net::SocketPtr s =
                    co_await machine.network().connect(0, service);
                co_await sim::delay(sim::milliseconds(500));
                if (stray_ack) {
                  net::rpc::post(*s, net::rpc::StageAck(
                                         "big_input",
                                         os::cas_digest("big_input",
                                                        200'000'000)));
                }
                co_await sim::delay(sim::seconds(30));
              }(machine, jets.service().address(), stray_ack));
          std::vector<JobSpec> batch;
          batch.push_back(std::move(spec));
          out = co_await jets.run_batch(std::move(batch));
        }(jets, bed.machine, std::move(spec), stray_ack, report));
    bed.engine.run_until(sim::seconds(600));
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(jets.service().stage_pushes(), 1u);
    return report.records.empty() ? JobRecord{} : report.records[0];
  };
  const JobRecord quiet = run(false);
  const JobRecord stray = run(true);
  EXPECT_GT(quiet.started_at, 0);
  EXPECT_EQ(stray.started_at, quiet.started_at);
  EXPECT_EQ(stray.finished_at, quiet.finished_at);
  EXPECT_TRUE(stray == quiet);
}

TEST(StagingService, DataAwareClaimPrefersTheWarmWindow) {
  // Two concurrent width-2 gangs warm different node pairs with different
  // blobs; a third job wanting the second blob must land on the second
  // pair even though the min-span rule alone would hand it the first.
  // (Data-aware picking refines the network-aware window scan, so that
  // knob must be on; FCFS claiming stays untouched.)
  constexpr std::size_t kNodes = 4;
  StagingBed bed(kNodes);
  bed.machine.shared_fs().put("in_x", 6'000'000);
  bed.machine.shared_fs().put("in_y", 6'000'000);
  StandaloneOptions options = StagingBed::fast_options();
  options.service.network_aware_grouping = true;
  StandaloneJets jets(bed.machine, bed.apps, options);
  StagingBed::enlist(jets, kNodes);

  JobSpec jx = mpi_job(2, {"mpi_sleep", "1"});
  jx.stage_files = {"in_x"};
  JobSpec jy = mpi_job(2, {"mpi_sleep", "1"});
  jy.stage_files = {"in_y"};
  auto r1 = bed.run_chaos(jets, nullptr, {jx, jy});
  ASSERT_EQ(r1.completed, 2u);
  ASSERT_EQ(r1.records[0].nodes, (std::vector<os::NodeId>{0, 1}));
  ASSERT_EQ(r1.records[1].nodes, (std::vector<os::NodeId>{2, 3}));

  const auto warm_before = jets.service().stage_warm_hits();
  auto r2 = bed.run_chaos(jets, nullptr, {jy});
  ASSERT_EQ(r2.completed, 1u);
  EXPECT_EQ(r2.records[0].nodes, (std::vector<os::NodeId>{2, 3}));
  EXPECT_EQ(jets.service().stage_warm_hits(), warm_before + 2);
}

// --- Determinism -------------------------------------------------------------

/// One mixed batch with no stage_files anywhere, run with the staging
/// cache configured per `enabled`.
std::uint64_t cold_run_digest(bool enabled) {
  constexpr std::size_t kNodes = 4;
  StagingBed bed(kNodes);
  StandaloneOptions options = StagingBed::fast_options();
  options.service.staging_cache = enabled;
  StandaloneJets jets(bed.machine, bed.apps, options);
  StagingBed::enlist(jets, kNodes);

  std::vector<JobSpec> jobs;
  for (int i = 0; i < 6; ++i) jobs.push_back(seq_job({"sleep", "1"}));
  jobs.push_back(mpi_job(2, {"mpi_sleep", "1"}));
  jobs.push_back(mpi_job(4, {"mpi_sleep", "1"}));
  const auto report = bed.run_chaos(jets, nullptr, std::move(jobs));
  EXPECT_EQ(report.completed, 8u);
  EXPECT_EQ(jets.service().stage_requests(), 0u);
  return fold_records(report);
}

TEST(StagingDeterminism, ColdRunsAreByteIdenticalWithKnobsOnOrOff) {
  // The golden-manifest argument in miniature: jobs without stage_files
  // must execute identically whether the staging subsystem exists or not.
  EXPECT_EQ(cold_run_digest(true), cold_run_digest(false));
}

struct WarmRun {
  std::uint64_t digest = 0;
  std::size_t requests = 0;
  std::size_t pushes = 0;
  std::size_t warm_hits = 0;
  std::uint64_t bytes_pushed = 0;
};

WarmRun warm_run() {
  constexpr std::size_t kNodes = 4;
  StagingBed bed(kNodes);
  bed.machine.shared_fs().put("ens_a", 8'000'000);
  bed.machine.shared_fs().put("ens_b", 2'000'000);
  StandaloneJets jets(bed.machine, bed.apps, StagingBed::fast_options());
  StagingBed::enlist(jets, kNodes);
  JobSpec spec = mpi_job(4, {"mpi_sleep", "1"});
  spec.stage_files = {"ens_a", "ens_b"};
  std::vector<JobSpec> jobs(6, spec);
  const auto report = bed.run_chaos(jets, nullptr, std::move(jobs));
  EXPECT_EQ(report.completed, 6u);
  WarmRun out;
  out.digest = fold_records(report);
  out.requests = jets.service().stage_requests();
  out.pushes = jets.service().stage_pushes();
  out.warm_hits = jets.service().stage_warm_hits();
  out.bytes_pushed = jets.service().stage_bytes_pushed();
  return out;
}

TEST(StagingDeterminism, WarmRunsReplayIdentically) {
  const WarmRun a = warm_run();
  const WarmRun b = warm_run();
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.pushes, b.pushes);
  EXPECT_EQ(a.warm_hits, b.warm_hits);
  EXPECT_EQ(a.bytes_pushed, b.bytes_pushed);
}

// --- Snapshot coverage -------------------------------------------------------

TEST(StagingSnapshot, CodecRoundTripsBlobsCachesAndStageFiles) {
  Snapshot s;
  s.taken_at = sim::seconds(7);
  s.addr = net::Address{2, 9'000};
  std::ostringstream rng_os;
  rng_os << std::mt19937_64(11);
  s.rng_state = rng_os.str();

  JobSnap j;
  j.rec.id = 1;
  j.rec.spec.argv = {"sleep", "1"};
  j.rec.spec.stage_files = {"ens_a", "ens_b"};
  s.jobs = {j};
  s.queue_order = {1};

  s.blobs = {{"ens_a", os::cas_digest("ens_a", 8'000'000), 8'000'000},
             {"ens_b", os::cas_digest("ens_b", 2'000'000), 2'000'000}};
  s.node_caches = {{0, {os::cas_digest("ens_a", 8'000'000)}},
                   {3,
                    {os::cas_digest("ens_a", 8'000'000),
                     os::cas_digest("ens_b", 2'000'000)}}};

  const auto bytes = s.serialize();
  const Snapshot back = Snapshot::parse(bytes);
  EXPECT_EQ(s, back);
  EXPECT_EQ(bytes, back.serialize());
}

TEST(StagingSnapshot, RestoreCarriesResidencyAcrossACrash) {
  // Warm a node cache, crash the service, restore from the checkpoint: the
  // next job over the same blob must be a warm hit, not a re-push.
  StagingBed bed(1);
  bed.machine.shared_fs().put("ens_a", 8'000'000);
  StandaloneOptions options = StagingBed::fast_options();
  options.worker.reconnect_backoff = sim::milliseconds(200);
  StandaloneJets jets(bed.machine, bed.apps, options);
  StagingBed::enlist(jets, 1);

  JobSpec spec = seq_job({"sleep", "1"});
  spec.stage_files = {"ens_a"};
  auto r1 = bed.run_chaos(jets, nullptr, {spec});
  ASSERT_EQ(r1.completed, 1u);
  ASSERT_EQ(jets.service().stage_pushes(), 1u);

  const std::vector<std::uint8_t> img = jets.checkpoint().serialize();
  jets.crash_service();
  jets.restore_service(Snapshot::parse(img));

  BatchReport r2;
  bed.engine.spawn("driver",
                   [](StandaloneJets& jets, JobSpec spec,
                      BatchReport& out) -> sim::Task<void> {
                     // Give the pilot time to redial the restored service.
                     co_await sim::delay(sim::seconds(2));
                     std::vector<JobSpec> batch;
                     batch.push_back(std::move(spec));
                     out = co_await jets.run_batch(std::move(batch));
                   }(jets, spec, r2));
  bed.engine.run_until(sim::seconds(600));
  ASSERT_LT(bed.engine.now(), sim::seconds(600)) << "batch did not settle";
  EXPECT_EQ(r2.completed, 1u);
  EXPECT_EQ(jets.service().stage_pushes(), 1u);  // counters restored, no re-push
  EXPECT_EQ(jets.service().stage_warm_hits(), 1u);
}

}  // namespace
}  // namespace jets::core
