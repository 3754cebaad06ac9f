// Versioned, self-describing binary serialization of the full Service
// scheduler state — the checkpoint half of crash recovery (ROADMAP item 5).
//
// The image is an explicit inventory of every piece of mutable scheduler
// state: the append-only job table (records, per-attempt FailureReason
// history, retry/backoff budgets), the worker table keyed by registration
// seq (SlotMap handles are process-local and never serialized), the
// pending-queue FIFO order, blacklist/probation state, the deadlines of
// every service-owned engine timer (re-armed on restore), the retry rng
// stream, the metrics counters, and the obs span journal.
//
// Service::checkpoint() writes the image in one pass straight from the
// live tables and returns it as a Checkpoint. Snapshot is the decoded
// view (what parse() returns and restore consumes) and, through
// serialize(), the reference encoder for hand-built states. Both encoders
// run the same encoder body and per-row field lists; they differ only in
// where the rows come from, so parse(img).serialize() == img for every
// live image.
//
// Wire format (all integers little-endian, fixed-width):
//
//   header:   magic u32 ("JETS") | version u32 | flags u8 (bit0 = LE)
//   sections: { tag u16 | length u64 | payload[length] } ...
//
// Sections are tagged and length-prefixed so a reader can *skip* sections
// it does not understand (forward compatibility: a newer writer may append
// sections an old reader ignores). Strings are u32 length + bytes; bools
// are one byte; times/durations are two's-complement i64; doubles are
// their IEEE-754 bit pattern as u64. Truncated input, a bad magic, an
// unsupported version, or a missing required section throws SnapshotError.
//
// What is NOT captured (and why replay still works — see DESIGN.md §10):
// engine-internal event/actor state, in-flight network messages, worker-
// side pilot state, live mpiexec gangs, histograms (distribution summaries
// are observability, not scheduler state), and open socket endpoints.
// Restore compensates through reconciliation: every checkpointed worker
// returns as a "ghost" until its pilot redials and reclaims it, running
// MPI attempts are requeued with kServiceRestart (never charged to retry
// budgets), and sequential attempts are rescued when the redialing pilot
// still announces their task id.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/job.hh"
#include "net/socket.hh"
#include "obs/span.hh"
#include "sim/time.hh"

namespace jets::core {

/// Malformed snapshot input (bad magic/version, truncation, inconsistent
/// cross-references such as a queue entry naming a non-pending job).
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One checkpointed worker, keyed by registration seq (stable across
/// restore; SlotMap handles are not). `ready`/`ready_rank` record the
/// ready-pool membership for audit and round-trip fidelity; restore ignores
/// them — a ghost re-enters the pool only when its pilot redials and sends
/// "ready" again, which is what makes the pool trustworthy after a crash.
struct WorkerSnap {
  std::uint64_t seq = 0;
  std::uint32_t node = 0;
  bool connected = false;
  bool busy = false;
  bool evicted = false;
  JobId job = 0;
  std::string task_id;
  sim::Time last_heard = 0;
  bool ready = false;
  std::uint64_t ready_rank = 0;  // 1-based FIFO position; 0 = not pooled

  friend bool operator==(const WorkerSnap&, const WorkerSnap&) = default;
};

/// One checkpointed job: the full JobRecord plus the scheduler-side state
/// that does not live in the record. Timer state is serialized as absolute
/// deadlines (-1 = not armed) and re-armed on restore, clamped to `now`.
struct JobSnap {
  JobRecord rec;
  std::string task_id;                     // outstanding sequential task
  std::vector<std::uint64_t> assigned_seq; // attempt's workers, by seq
  bool in_backoff = false;
  sim::Time retry_at = -1;    // backoff timer deadline
  sim::Time timeout_at = -1;  // job deadline timer
  bool deadline_passed = false;

  friend bool operator==(const JobSnap&, const JobSnap&) = default;
};

/// One content-addressed blob the service has interned for staging
/// (path -> digest/size). Restored into blob_info_ so post-restore jobs
/// agree with pre-crash jobs on every blob identity.
struct BlobSnap {
  std::string path;
  std::uint64_t digest = 0;
  std::uint64_t bytes = 0;

  friend bool operator==(const BlobSnap&, const BlobSnap&) = default;
};

/// One node's warm-cache residency: digests the node has *acked* (sorted
/// ascending). In-flight stage-ins are deliberately not captured — they
/// die with the crash and are simply re-staged on demand, exactly like a
/// worker lost mid-stage.
struct NodeCacheSnap {
  std::uint32_t node = 0;
  std::vector<std::uint64_t> digests;

  friend bool operator==(const NodeCacheSnap&, const NodeCacheSnap&) = default;
};

/// Per-node elastic-allocation state (walltime horizon + drain progress);
/// present only for runs driven by an elastic allocator. Drain deadlines
/// are re-armed on restore (clamped to `now`), so a crash between a drain
/// start and its deadline still requeues the block's jobs.
struct ElasticNodeSnap {
  std::uint32_t node = 0;
  sim::Time expires_at = -1;
  bool draining = false;
  sim::Time drain_at = -1;

  friend bool operator==(const ElasticNodeSnap&, const ElasticNodeSnap&) =
      default;
};

/// Per-node blacklist/probation state.
struct NodeHealthSnap {
  std::uint32_t node = 0;
  std::int32_t evictions = 0;
  bool banned = false;
  sim::Time banned_until = -1;

  friend bool operator==(const NodeHealthSnap&, const NodeHealthSnap&) = default;
};

struct Snapshot {
  static constexpr std::uint32_t kMagic = 0x5354454a;  // "JETS" as LE bytes
  static constexpr std::uint32_t kVersion = 1;

  /// Engine time the checkpoint was taken.
  sim::Time taken_at = 0;
  /// The service's bound listen address; restore rebinds it so surviving
  /// pilots redialing their configured endpoint reach the new incarnation.
  net::Address addr{};
  std::uint64_t next_worker_seq = 1;
  std::uint64_t next_task = 1;
  std::uint64_t peak_capacity = 0;
  /// std::mt19937_64 stream state of the retry-jitter rng (its canonical
  /// text serialization), so post-restore backoff draws continue the
  /// checkpointed sequence.
  std::string rng_state;
  /// Service counters by registry name (histograms are not captured).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Every job, ascending dense id (index i holds id i+1).
  std::vector<JobSnap> jobs;
  /// Live pending-queue FIFO, front first.
  std::vector<JobId> queue_order;
  /// Every worker, ascending seq.
  std::vector<WorkerSnap> workers;
  /// Blacklist state, ascending node.
  std::vector<NodeHealthSnap> node_health;
  /// Elastic allocation state, ascending node (empty on non-elastic runs).
  std::vector<ElasticNodeSnap> elastic;
  /// Elastic capacity floor (see Service::set_elastic_capacity).
  std::uint64_t elastic_capacity = 0;
  /// Interned staging blobs, ascending path.
  std::vector<BlobSnap> blobs;
  /// Warm-cache residency, ascending node (nodes with any resident digest).
  std::vector<NodeCacheSnap> node_caches;
  /// The obs span journal (empty when no tracer was attached); restore
  /// imports it so the restored run's trace stays contiguous.
  std::vector<obs::Span> journal;

  /// Reference encoder: the image of this decoded state.
  std::vector<std::uint8_t> serialize() const;
  /// Decodes an image. Throws SnapshotError on malformed input; row counts
  /// only size reservations up to what the remaining bytes could hold.
  static Snapshot parse(const std::vector<std::uint8_t>& bytes);

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// A checkpoint image as Service::checkpoint() wrote it. serialize() hands
/// over the bytes, moving them out when called on a temporary
/// (`jets.checkpoint().serialize()` copies nothing).
class Checkpoint {
 public:
  explicit Checkpoint(std::vector<std::uint8_t> image)
      : image_(std::move(image)) {}

  const std::vector<std::uint8_t>& serialize() const& { return image_; }
  std::vector<std::uint8_t> serialize() && { return std::move(image_); }

 private:
  std::vector<std::uint8_t> image_;
};

}  // namespace jets::core
