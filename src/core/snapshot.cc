// Snapshot codec + the two Service halves that depend on it:
// checkpoint() (live tables -> image) and apply_snapshot() (Snapshot ->
// freshly constructed service). One encoder body, encode_image(), writes
// the image from either row source: a decoded Snapshot (the reference
// encoder) or the service's live tables. See snapshot.hh for the wire
// format and DESIGN.md §10 for the determinism argument.
#include "core/snapshot.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <span>
#include <sstream>
#include <unordered_map>

#include "core/service.hh"
#include "obs/tracer.hh"

namespace jets::core {

namespace {

// Section tags. Values are wire protocol: never renumber, only append.
enum SectionTag : std::uint16_t {
  kMeta = 1,      // required
  kCounters = 2,  // optional
  kJobs = 3,      // required
  kQueue = 4,     // required
  kWorkers = 5,   // required
  kNodes = 6,     // optional
  kRng = 7,       // required
  kJournal = 8,   // optional
  kStaging = 9,   // optional
  kElastic = 10,  // optional
};

constexpr std::uint8_t kFlagLittleEndian = 0x01;

/// Fixed-width integers travel as their little-endian bytes.
template <typename U>
std::array<std::uint8_t, sizeof(U)> to_le(U v) {
  auto b = std::bit_cast<std::array<std::uint8_t, sizeof(U)>>(v);
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(b.begin(), b.end());
  }
  return b;
}
template <typename U>
U from_le(const std::uint8_t* p) {
  std::array<std::uint8_t, sizeof(U)> b;
  std::memcpy(b.data(), p, sizeof(U));
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(b.begin(), b.end());
  }
  return std::bit_cast<U>(b);
}

/// Appends the image to one buffer reserved up front. Each fixed-width
/// field is one bounded copy of its little-endian bytes; the buffer's size
/// runs ahead of the write position a batch at a time, so only bytes about
/// to be written are ever touched.
class Writer {
 public:
  explicit Writer(std::size_t capacity) { buf_.reserve(capacity); }

  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }

  /// A u32 row count for rows whose number is known only once they are
  /// written (a live source that filters as it walks): `rows` appends them
  /// and returns how many.
  template <typename Rows>
  void counted(Rows&& rows) {
    const std::size_t at = pos_;
    u32(0);
    overwrite(at, static_cast<std::uint32_t>(rows()));
  }

  /// Appends a complete tagged section built by `body` (payload length is
  /// back-patched, so sections compose without a second pass).
  template <typename Body>
  void section(std::uint16_t tag, Body&& body) {
    u16(tag);
    const std::size_t len_at = pos_;
    u64(0);  // placeholder
    body(*this);
    overwrite(len_at, static_cast<std::uint64_t>(pos_ - len_at - 8));
  }

  std::vector<std::uint8_t> take() && {
    buf_.resize(pos_);
    return std::move(buf_);
  }

 private:
  static constexpr std::size_t kBatch = 64 * 1024;

  template <typename U>
  void put(U v) {
    const auto b = to_le(v);
    std::memcpy(room(sizeof(U)), b.data(), sizeof(U));
  }
  template <typename U>
  void overwrite(std::size_t at, U v) {
    const auto b = to_le(v);
    std::memcpy(buf_.data() + at, b.data(), sizeof(U));
  }
  void append(const void* p, std::size_t n) {
    if (n > 0) std::memcpy(room(n), p, n);
  }
  /// Claims the next `n` bytes and returns where they start.
  std::uint8_t* room(std::size_t n) {
    if (n > buf_.size() - pos_) grow(n);
    std::uint8_t* at = buf_.data() + pos_;
    pos_ += n;
    return at;
  }
  void grow(std::size_t n) {
    buf_.resize(std::max(pos_ + n, buf_.size() + kBatch));
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return from_le<std::uint16_t>(take(2)); }
  std::uint32_t u32() { return from_le<std::uint32_t>(take(4)); }
  std::uint64_t u64() { return from_le<std::uint64_t>(take(8)); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint32_t n = u32();
    const std::uint8_t* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }

  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// Reserves room for `n` rows of at least `min_row` wire bytes each, but
  /// never more rows than the remaining bytes could hold: a hostile count
  /// cannot force a large allocation, it just runs into truncation.
  template <typename T>
  void reserve(std::vector<T>& v, std::uint64_t n, std::size_t min_row) const {
    const std::uint64_t fits = remaining() / min_row;
    v.reserve(static_cast<std::size_t>(std::min(n, fits)));
  }
  void skip(std::size_t n) { take(n); }
  /// Bounded view of the next `n` bytes (one section's payload), consumed
  /// from this reader — a corrupt section can never read past its length.
  Reader sub(std::size_t n) { return Reader(take(n), n); }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (n > size_ - pos_) throw SnapshotError("snapshot truncated");
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void write_retry(Writer& w, const RetryPolicy& p) {
  w.i32(p.max_attempts);
  w.boolean(p.infra_exempt);
  w.i32(p.max_infra_failures);
  w.i64(p.backoff_base);
  w.f64(p.backoff_factor);
  w.i64(p.backoff_max);
  w.f64(p.backoff_jitter);
  w.u64(p.jitter_seed);
}

RetryPolicy read_retry(Reader& r) {
  RetryPolicy p;
  p.max_attempts = r.i32();
  p.infra_exempt = r.boolean();
  p.max_infra_failures = r.i32();
  p.backoff_base = r.i64();
  p.backoff_factor = r.f64();
  p.backoff_max = r.i64();
  p.backoff_jitter = r.f64();
  p.jitter_seed = r.u64();
  return p;
}

void write_spec(Writer& w, const JobSpec& s) {
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.i32(s.nprocs);
  w.i32(s.ppn);
  w.u32(static_cast<std::uint32_t>(s.argv.size()));
  for (const std::string& a : s.argv) w.str(a);
  w.u32(static_cast<std::uint32_t>(s.vars.size()));
  for (const auto& [k, v] : s.vars) {
    w.str(k);
    w.str(v);
  }
  w.i64(s.timeout);
  w.i32(s.priority);
  w.boolean(s.retry.has_value());
  if (s.retry) write_retry(w, *s.retry);
  w.u32(static_cast<std::uint32_t>(s.stage_files.size()));
  for (const std::string& f : s.stage_files) w.str(f);
  w.i64(s.expected_runtime);
}

JobSpec read_spec(Reader& r) {
  JobSpec s;
  const std::uint8_t kind = r.u8();
  if (kind > 1) throw SnapshotError("snapshot: bad job kind");
  s.kind = static_cast<JobKind>(kind);
  s.nprocs = r.i32();
  s.ppn = r.i32();
  if (!s.shape_valid()) throw SnapshotError("snapshot: bad nprocs or ppn");
  const std::uint32_t argc = r.u32();
  r.reserve(s.argv, argc, 4);  // a string is at least its u32 length
  for (std::uint32_t n = argc; n > 0; --n) s.argv.push_back(r.str());
  for (std::uint32_t n = r.u32(); n > 0; --n) {
    std::string k = r.str();
    s.vars[std::move(k)] = r.str();
  }
  s.timeout = r.i64();
  s.priority = r.i32();
  if (r.boolean()) s.retry = read_retry(r);
  const std::uint32_t nfiles = r.u32();
  r.reserve(s.stage_files, nfiles, 4);
  for (std::uint32_t n = nfiles; n > 0; --n) s.stage_files.push_back(r.str());
  s.expected_runtime = r.i64();
  return s;
}

FailureReason read_reason(Reader& r) {
  const std::uint8_t v = r.u8();
  if (v >= kFailureReasonCount) throw SnapshotError("snapshot: bad failure reason");
  return static_cast<FailureReason>(v);
}

void write_record(Writer& w, const JobRecord& rec) {
  w.u64(rec.id);
  write_spec(w, rec.spec);
  w.u8(static_cast<std::uint8_t>(rec.status));
  w.i32(rec.attempts);
  w.i32(rec.app_failures);
  w.i32(rec.infra_failures);
  w.u8(static_cast<std::uint8_t>(rec.last_reason));
  w.u32(static_cast<std::uint32_t>(rec.history.size()));
  for (const AttemptRecord& a : rec.history) {
    w.i32(a.attempt);
    w.i64(a.started_at);
    w.i64(a.ended_at);
    w.i32(a.exit_status);
    w.u8(static_cast<std::uint8_t>(a.reason));
    w.i64(a.backoff);
  }
  w.u32(static_cast<std::uint32_t>(rec.nodes.size()));
  for (net::NodeId n : rec.nodes) w.u32(n);
  w.i64(rec.submitted_at);
  w.i64(rec.started_at);
  w.i64(rec.finished_at);
}

JobRecord read_record(Reader& r) {
  JobRecord rec;
  rec.id = r.u64();
  rec.spec = read_spec(r);
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(JobStatus::kQuarantined)) {
    throw SnapshotError("snapshot: bad job status");
  }
  rec.status = static_cast<JobStatus>(status);
  rec.attempts = r.i32();
  rec.app_failures = r.i32();
  rec.infra_failures = r.i32();
  rec.last_reason = read_reason(r);
  const std::uint32_t nhistory = r.u32();
  r.reserve(rec.history, nhistory, 33);  // the six fixed-width fields
  for (std::uint32_t n = nhistory; n > 0; --n) {
    AttemptRecord a;
    a.attempt = r.i32();
    a.started_at = r.i64();
    a.ended_at = r.i64();
    a.exit_status = r.i32();
    a.reason = read_reason(r);
    a.backoff = r.i64();
    rec.history.push_back(a);
  }
  const std::uint32_t nnodes = r.u32();
  r.reserve(rec.nodes, nnodes, 4);
  for (std::uint32_t n = nnodes; n > 0; --n) rec.nodes.push_back(r.u32());
  rec.submitted_at = r.i64();
  rec.started_at = r.i64();
  rec.finished_at = r.i64();
  return rec;
}

void write_span(Writer& w, const obs::Span& s) {
  w.u64(s.id);
  w.u64(s.parent);
  w.str(s.name);
  w.u64(s.track);
  w.i64(s.begin);
  w.i64(s.end);
  w.u32(static_cast<std::uint32_t>(s.attrs.size()));
  for (const obs::Attr& a : s.attrs) {
    w.str(a.key);
    w.str(a.value);
  }
}

obs::Span read_span(Reader& r) {
  obs::Span s;
  s.id = r.u64();
  s.parent = r.u64();
  s.name = r.str();
  s.track = r.u64();
  s.begin = r.i64();
  s.end = r.i64();
  const std::uint32_t nattrs = r.u32();
  r.reserve(s.attrs, nattrs, 8);  // two strings
  for (std::uint32_t n = nattrs; n > 0; --n) {
    obs::Attr a;
    a.key = r.str();
    a.value = r.str();
    s.attrs.push_back(std::move(a));
  }
  return s;
}

/// Scalars of the meta and elastic sections.
struct ImageMeta {
  sim::Time taken_at = 0;
  net::Address addr{};
  std::uint64_t next_worker_seq = 0;
  std::uint64_t next_task = 0;
  std::uint64_t peak_capacity = 0;
  std::uint64_t elastic_capacity = 0;
};

/// The scheduler-side fields of a job row that do not live in its record.
struct JobState {
  bool in_backoff = false;
  sim::Time retry_at = -1;
  sim::Time timeout_at = -1;
  bool deadline_passed = false;
};

/// Bytes to reserve for an image: generous per-row sizes, so a typical
/// checkpoint is written into a single allocation (a job row with a short
/// argv, one staged input and one attempt is ~190 bytes). A larger image
/// grows the buffer by doubling.
std::size_t image_capacity(std::size_t jobs, std::size_t workers,
                           std::size_t spans) {
  return 16 * 1024 + 256 * jobs + 96 * workers + 128 * spans;
}

/// The one encoder body: header, section order, framing and the layout of
/// every row. `Rows` says only where the rows come from — a decoded
/// Snapshot (SnapshotRows) or the live service (Service::ImageRows) — by
/// providing, per section, its row count and a visitor over its rows.
/// Workers are visited as any struct with WorkerSnap's identity fields
/// (WorkerSnap itself, or Service::Worker).
template <typename Rows>
std::vector<std::uint8_t> encode_image(const Rows& rows) {
  const std::span<const obs::Span> journal = rows.journal();
  Writer w(image_capacity(rows.job_count(), rows.worker_count(),
                          journal.size()));
  w.u32(Snapshot::kMagic);
  w.u32(Snapshot::kVersion);
  w.u8(kFlagLittleEndian);
  const ImageMeta meta = rows.meta();
  w.section(kMeta, [&](Writer& s) {
    s.i64(meta.taken_at);
    s.u32(meta.addr.node);
    s.u32(meta.addr.port);
    s.u64(meta.next_worker_seq);
    s.u64(meta.next_task);
    s.u64(meta.peak_capacity);
  });
  w.section(kRng, [&](Writer& s) { s.str(rows.rng_state()); });
  w.section(kCounters, [&](Writer& s) {
    s.u32(static_cast<std::uint32_t>(rows.counter_count()));
    rows.counters([&](const std::string& name, std::uint64_t value) {
      s.str(name);
      s.u64(value);
    });
  });
  w.section(kJobs, [&](Writer& s) {
    s.u64(rows.job_count());
    rows.jobs([&](const JobRecord& rec, const std::string& task_id,
                  auto&& assigned_seqs, const JobState& st) {
      write_record(s, rec);
      s.str(task_id);
      s.counted([&] {
        std::uint32_t n = 0;
        assigned_seqs([&](std::uint64_t seq) {
          s.u64(seq);
          ++n;
        });
        return n;
      });
      s.boolean(st.in_backoff);
      s.i64(st.retry_at);
      s.i64(st.timeout_at);
      s.boolean(st.deadline_passed);
    });
  });
  w.section(kQueue, [&](Writer& s) {
    s.u64(rows.queue_count());
    rows.queue([&](JobId id) { s.u64(id); });
  });
  w.section(kWorkers, [&](Writer& s) {
    s.u64(rows.worker_count());
    rows.workers([&](const auto& wk, bool ready, std::uint64_t ready_rank) {
      s.u64(wk.seq);
      s.u32(wk.node);
      s.boolean(wk.connected);
      s.boolean(wk.busy);
      s.boolean(wk.evicted);
      s.u64(wk.job);
      s.str(wk.task_id);
      s.i64(wk.last_heard);
      s.boolean(ready);
      s.u64(ready_rank);
    });
  });
  w.section(kNodes, [&](Writer& s) {
    s.u32(static_cast<std::uint32_t>(rows.node_health_count()));
    rows.node_health([&](const NodeHealthSnap& nh) {
      s.u32(nh.node);
      s.i32(nh.evictions);
      s.boolean(nh.banned);
      s.i64(nh.banned_until);
    });
  });
  w.section(kStaging, [&](Writer& s) {
    s.u32(static_cast<std::uint32_t>(rows.blob_count()));
    rows.blobs([&](const std::string& path, std::uint64_t digest,
                   std::uint64_t bytes) {
      s.str(path);
      s.u64(digest);
      s.u64(bytes);
    });
    s.counted([&] {
      std::uint32_t n = 0;
      rows.node_caches([&](std::uint32_t node,
                           const std::vector<std::uint64_t>& digests) {
        s.u32(node);
        s.u32(static_cast<std::uint32_t>(digests.size()));
        for (std::uint64_t d : digests) s.u64(d);
        ++n;
      });
      return n;
    });
  });
  w.section(kElastic, [&](Writer& s) {
    s.u64(meta.elastic_capacity);
    s.u32(static_cast<std::uint32_t>(rows.elastic_count()));
    rows.elastic([&](const ElasticNodeSnap& en) {
      s.u32(en.node);
      s.i64(en.expires_at);
      s.boolean(en.draining);
      s.i64(en.drain_at);
    });
  });
  w.section(kJournal, [&](Writer& s) {
    s.u64(journal.size());
    for (const obs::Span& sp : journal) write_span(s, sp);
  });
  return std::move(w).take();
}

/// Row source of the reference encoder: a decoded Snapshot's vectors.
class SnapshotRows {
 public:
  explicit SnapshotRows(const Snapshot& s) : s_(s) {}

  ImageMeta meta() const {
    return {s_.taken_at,  s_.addr,          s_.next_worker_seq,
            s_.next_task, s_.peak_capacity, s_.elastic_capacity};
  }
  const std::string& rng_state() const { return s_.rng_state; }
  std::size_t counter_count() const { return s_.counters.size(); }
  template <typename Fn>
  void counters(Fn&& fn) const {
    for (const auto& [name, value] : s_.counters) fn(name, value);
  }
  std::size_t job_count() const { return s_.jobs.size(); }
  template <typename Fn>
  void jobs(Fn&& fn) const {
    for (const JobSnap& j : s_.jobs) {
      fn(j.rec, j.task_id,
         [&](auto&& emit) {
           for (std::uint64_t seq : j.assigned_seq) emit(seq);
         },
         JobState{j.in_backoff, j.retry_at, j.timeout_at, j.deadline_passed});
    }
  }
  std::size_t queue_count() const { return s_.queue_order.size(); }
  template <typename Fn>
  void queue(Fn&& fn) const {
    for (JobId id : s_.queue_order) fn(id);
  }
  std::size_t worker_count() const { return s_.workers.size(); }
  template <typename Fn>
  void workers(Fn&& fn) const {
    for (const WorkerSnap& ws : s_.workers) fn(ws, ws.ready, ws.ready_rank);
  }
  std::size_t node_health_count() const { return s_.node_health.size(); }
  template <typename Fn>
  void node_health(Fn&& fn) const {
    for (const NodeHealthSnap& nh : s_.node_health) fn(nh);
  }
  std::size_t blob_count() const { return s_.blobs.size(); }
  template <typename Fn>
  void blobs(Fn&& fn) const {
    for (const BlobSnap& b : s_.blobs) fn(b.path, b.digest, b.bytes);
  }
  template <typename Fn>
  void node_caches(Fn&& fn) const {
    for (const NodeCacheSnap& nc : s_.node_caches) fn(nc.node, nc.digests);
  }
  std::size_t elastic_count() const { return s_.elastic.size(); }
  template <typename Fn>
  void elastic(Fn&& fn) const {
    for (const ElasticNodeSnap& en : s_.elastic) fn(en);
  }
  std::span<const obs::Span> journal() const { return s_.journal; }

 private:
  const Snapshot& s_;
};

}  // namespace

/// Row source of checkpoint(): the service's live tables, read in place.
/// Handles are process-local, so every cross-reference to a worker is
/// written as its registration seq.
class Service::ImageRows {
 public:
  explicit ImageRows(const Service& svc) : svc_(svc) {}

  ImageMeta meta() const {
    return {svc_.machine_->engine().now(),
            svc_.addr_,
            svc_.next_worker_seq_,
            svc_.next_task_,
            svc_.peak_capacity_,
            svc_.elastic_capacity_};
  }
  std::string rng_state() const {
    std::ostringstream os;
    os << svc_.retry_rng_.generator();
    return std::move(os).str();
  }
  std::size_t counter_count() const { return svc_.counter_index_.size(); }
  template <typename Fn>
  void counters(Fn&& fn) const {
    for (const auto& [name, c] : svc_.counter_index_) fn(name, c->value);
  }
  std::size_t job_count() const { return svc_.jobs_.size(); }
  template <typename Fn>
  void jobs(Fn&& fn) const {
    svc_.jobs_.for_each([&](JobId, const Job& job) {
      JobState st;
      st.in_backoff = job.in_backoff;
      if (const auto at = job.retry_timer.fire_time()) st.retry_at = *at;
      if (const auto at = job.timeout.fire_time()) st.timeout_at = *at;
      st.deadline_passed = job.deadline_passed;
      // An attempt's worker may already be gone (EOF under a running
      // job); only workers still in the table are written.
      fn(job.rec, job.task_id,
         [&](auto&& emit) {
           for (WorkerId wid : job.assigned) {
             if (const Worker* w = svc_.workers_.find(wid)) emit(w->seq);
           }
         },
         st);
    });
  }
  std::size_t queue_count() const { return svc_.queue_.size(); }
  template <typename Fn>
  void queue(Fn&& fn) const {
    svc_.queue_.for_each([&](JobId id, std::uint32_t) { fn(id); });
  }
  std::size_t worker_count() const { return svc_.workers_.size(); }
  /// Ascending seq (handles recycle slots, so slot order is not seq
  /// order), each with its 1-based ready-pool FIFO rank (0 = not pooled).
  template <typename Fn>
  void workers(Fn&& fn) const {
    std::vector<std::uint64_t> rank_of_slot(svc_.workers_.slab_high_water());
    std::uint64_t rank = 0;
    svc_.ready_.for_each([&](WorkerId wid) {
      rank_of_slot[SlotMap<Worker>::slot_of(wid)] = ++rank;
    });
    std::vector<std::pair<std::uint64_t, WorkerId>> by_seq;
    by_seq.reserve(svc_.workers_.size());
    svc_.workers_.for_each([&](WorkerId wid, const Worker& w) {
      by_seq.emplace_back(w.seq, wid);
    });
    std::sort(by_seq.begin(), by_seq.end());
    for (const auto& [seq, wid] : by_seq) {
      const std::uint64_t r = rank_of_slot[SlotMap<Worker>::slot_of(wid)];
      fn(svc_.workers_.at(wid), r != 0, r);
    }
  }
  std::size_t node_health_count() const { return svc_.node_health_.size(); }
  template <typename Fn>
  void node_health(Fn&& fn) const {
    for (const auto& [node, h] : svc_.node_health_) {
      fn(NodeHealthSnap{node, h.evictions, h.banned, h.banned_until});
    }
  }
  std::size_t blob_count() const { return svc_.blob_info_.size(); }
  template <typename Fn>
  void blobs(Fn&& fn) const {
    for (const auto& [path, info] : svc_.blob_info_) {
      fn(path, info.first, info.second);
    }
  }
  /// Acked residency only: pending stage-ins are not captured (see
  /// NodeCacheSnap).
  template <typename Fn>
  void node_caches(Fn&& fn) const {
    svc_.residency_.for_each_resident(fn);
  }
  std::size_t elastic_count() const { return svc_.node_elastic_.size(); }
  template <typename Fn>
  void elastic(Fn&& fn) const {
    for (const auto& [node, e] : svc_.node_elastic_) {
      fn(ElasticNodeSnap{node, e.expires_at, e.draining, e.drain_at});
    }
  }
  std::span<const obs::Span> journal() const {
    if (const obs::Tracer* tr = svc_.tracer()) return tr->spans();
    return {};
  }

 private:
  const Service& svc_;
};

// --- Images ------------------------------------------------------------------

std::vector<std::uint8_t> Snapshot::serialize() const {
  return encode_image(SnapshotRows(*this));
}

Checkpoint Service::checkpoint() const {
  return Checkpoint(encode_image(ImageRows(*this)));
}

// Minimum wire bytes of one row of the variable-size lists: their
// fixed-width fields plus empty strings and lists. The other reserve calls
// give the row's fixed size inline.
constexpr std::size_t kMinJobRow = 122;    // record 96 + job state 26
constexpr std::size_t kMinWorkerRow = 44;
constexpr std::size_t kMinSpanRow = 48;

Snapshot Snapshot::parse(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes.data(), bytes.size());
  if (r.u32() != kMagic) throw SnapshotError("snapshot: bad magic");
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    throw SnapshotError("snapshot: unsupported version " + std::to_string(version));
  }
  if ((r.u8() & kFlagLittleEndian) == 0) {
    throw SnapshotError("snapshot: unsupported byte order");
  }
  Snapshot out;
  bool have_meta = false, have_rng = false, have_jobs = false,
       have_queue = false, have_workers = false;
  while (!r.done()) {
    const std::uint16_t tag = r.u16();
    const std::uint64_t len = r.u64();
    if (len > r.remaining()) throw SnapshotError("snapshot truncated");
    Reader s = r.sub(static_cast<std::size_t>(len));
    switch (tag) {
      case kMeta:
        out.taken_at = s.i64();
        out.addr.node = s.u32();
        out.addr.port = s.u32();
        out.next_worker_seq = s.u64();
        out.next_task = s.u64();
        out.peak_capacity = s.u64();
        have_meta = true;
        break;
      case kRng:
        out.rng_state = s.str();
        have_rng = true;
        break;
      case kCounters: {
        const std::uint32_t count = s.u32();
        s.reserve(out.counters, count, 12);
        for (std::uint32_t n = count; n > 0; --n) {
          std::string name = s.str();
          out.counters.emplace_back(std::move(name), s.u64());
        }
        break;
      }
      case kJobs: {
        const std::uint64_t count = s.u64();
        s.reserve(out.jobs, count, kMinJobRow);
        for (std::uint64_t n = count; n > 0; --n) {
          JobSnap j;
          j.rec = read_record(s);
          j.task_id = s.str();
          const std::uint32_t nseqs = s.u32();
          s.reserve(j.assigned_seq, nseqs, 8);
          for (std::uint32_t k = nseqs; k > 0; --k) {
            j.assigned_seq.push_back(s.u64());
          }
          j.in_backoff = s.boolean();
          j.retry_at = s.i64();
          j.timeout_at = s.i64();
          j.deadline_passed = s.boolean();
          out.jobs.push_back(std::move(j));
        }
        have_jobs = true;
        break;
      }
      case kQueue: {
        const std::uint64_t count = s.u64();
        s.reserve(out.queue_order, count, 8);
        for (std::uint64_t n = count; n > 0; --n) {
          out.queue_order.push_back(s.u64());
        }
        have_queue = true;
        break;
      }
      case kWorkers: {
        const std::uint64_t count = s.u64();
        s.reserve(out.workers, count, kMinWorkerRow);
        for (std::uint64_t n = count; n > 0; --n) {
          WorkerSnap ws;
          ws.seq = s.u64();
          ws.node = s.u32();
          ws.connected = s.boolean();
          ws.busy = s.boolean();
          ws.evicted = s.boolean();
          ws.job = s.u64();
          ws.task_id = s.str();
          ws.last_heard = s.i64();
          ws.ready = s.boolean();
          ws.ready_rank = s.u64();
          out.workers.push_back(std::move(ws));
        }
        have_workers = true;
        break;
      }
      case kNodes: {
        const std::uint32_t count = s.u32();
        s.reserve(out.node_health, count, 17);
        for (std::uint32_t n = count; n > 0; --n) {
          NodeHealthSnap nh;
          nh.node = s.u32();
          nh.evictions = s.i32();
          nh.banned = s.boolean();
          nh.banned_until = s.i64();
          out.node_health.push_back(nh);
        }
        break;
      }
      case kStaging: {
        const std::uint32_t nblobs = s.u32();
        s.reserve(out.blobs, nblobs, 20);
        for (std::uint32_t n = nblobs; n > 0; --n) {
          BlobSnap b;
          b.path = s.str();
          b.digest = s.u64();
          b.bytes = s.u64();
          out.blobs.push_back(std::move(b));
        }
        const std::uint32_t ncaches = s.u32();
        s.reserve(out.node_caches, ncaches, 8);
        for (std::uint32_t n = ncaches; n > 0; --n) {
          NodeCacheSnap nc;
          nc.node = s.u32();
          const std::uint32_t ndigests = s.u32();
          s.reserve(nc.digests, ndigests, 8);
          for (std::uint32_t k = ndigests; k > 0; --k) {
            nc.digests.push_back(s.u64());
          }
          out.node_caches.push_back(std::move(nc));
        }
        break;
      }
      case kElastic: {
        out.elastic_capacity = s.u64();
        const std::uint32_t count = s.u32();
        s.reserve(out.elastic, count, 21);
        for (std::uint32_t n = count; n > 0; --n) {
          ElasticNodeSnap en;
          en.node = s.u32();
          en.expires_at = s.i64();
          en.draining = s.boolean();
          en.drain_at = s.i64();
          out.elastic.push_back(en);
        }
        break;
      }
      case kJournal: {
        const std::uint64_t count = s.u64();
        s.reserve(out.journal, count, kMinSpanRow);
        for (std::uint64_t n = count; n > 0; --n) {
          out.journal.push_back(read_span(s));
        }
        break;
      }
      default:
        break;  // unknown section from a newer writer: skipped by length
    }
  }
  if (!have_meta || !have_rng || !have_jobs || !have_queue || !have_workers) {
    throw SnapshotError("snapshot: missing required section");
  }
  return out;
}

// --- Snapshot -> Service -----------------------------------------------------

Service::Service(os::Machine& machine, const os::AppRegistry& apps,
                 os::NodeId host, Config config, Snapshot snap)
    : Service(machine, apps, host, std::move(config)) {
  apply_snapshot(std::move(snap));
}

void Service::apply_snapshot(Snapshot&& snap) {
  const sim::Time now = machine_->engine().now();
  addr_ = snap.addr;  // start() rebinds this exact address
  next_worker_seq_ = snap.next_worker_seq;
  next_task_ = snap.next_task;
  peak_capacity_ = snap.peak_capacity;
  {
    std::istringstream is(snap.rng_state);
    is >> retry_rng_.generator();
    if (is.fail()) throw SnapshotError("snapshot: bad rng state");
  }
  // Get-or-create by name: counters the snapshot knows and this build does
  // not (or vice versa) restore/default independently — same skip-forward
  // compatibility as unknown sections.
  for (const auto& [name, value] : snap.counters) {
    metrics_->counter(name).value = value;
  }

  // Every checkpointed worker comes back as a ghost: slot + capacity held,
  // not connected, awaiting its pilot's redial (adopt_ghost) or the
  // restore-grace reaper (reconcile_ghosts). evicted_live_ deliberately
  // stays 0 — awaiting_ already counts every ghost once, evicted or not.
  std::unordered_map<std::uint64_t, WorkerId> wid_of_seq;
  for (WorkerSnap& ws : snap.workers) {
    Worker w;
    w.seq = ws.seq;
    w.node = ws.node;
    w.busy = ws.busy;
    w.evicted = ws.evicted;
    w.job = ws.job;
    w.task_id = std::move(ws.task_id);
    w.last_heard = ws.last_heard;
    w.connected = false;
    w.awaiting = true;
    const WorkerId wid = workers_.insert(std::move(w));
    workers_.at(wid).id = wid;
    if (!wid_of_seq.emplace(ws.seq, wid).second) {
      throw SnapshotError("snapshot: duplicate worker seq");
    }
    ++awaiting_;
  }

  // Jobs, ascending id: the dense table hands ids back out in push order,
  // so the restored table *is* the checkpointed id space. Records move
  // out of the snapshot, which the caller handed over.
  std::vector<JobId> restart_requeue;
  for (JobSnap& js : snap.jobs) {
    Job job;
    job.rec = std::move(js.rec);
    job.deadline_passed = js.deadline_passed;
    const JobId id = jobs_.push_back(std::move(job));
    Job& j = jobs_.back();
    if (id != j.rec.id) throw SnapshotError("snapshot: job ids not dense");
    if (j.rec.status == JobStatus::kPending && js.in_backoff) {
      j.in_backoff = true;
      ++backing_off_;
      const sim::Time at = js.retry_at >= 0 ? std::max(js.retry_at, now) : now;
      j.retry_timer =
          machine_->engine().call_at(at, [this, id] { requeue_job(id); });
    } else if (j.rec.status == JobStatus::kRunning) {
      // Rescuable: a sequential attempt whose worker survived into the
      // checkpoint. The task may still be running on the pilot; whether it
      // actually is gets settled at reconciliation (adopt_ghost checks the
      // pilot's task inventory, reconcile_ghosts declares no-shows dead).
      std::vector<WorkerId> assigned;
      bool have_workers = !js.assigned_seq.empty();
      for (std::uint64_t seq : js.assigned_seq) {
        if (const auto it = wid_of_seq.find(seq); it != wid_of_seq.end()) {
          assigned.push_back(it->second);
        } else {
          have_workers = false;
        }
      }
      if (j.rec.spec.kind == JobKind::kSequential && !js.task_id.empty() &&
          have_workers) {
        task_to_job_[js.task_id] = id;
        j.task_id = std::move(js.task_id);
        j.assigned = std::move(assigned);
        j.restored_running = true;
        ++running_;
      } else {
        // MPI gangs cannot be rescued — the background mpiexec and its PMI
        // wiring died with the service — and neither can an attempt whose
        // workers were already gone at checkpoint time. Close the attempt
        // as kServiceRestart (blameless: charged to no budget) and requeue.
        if (!j.rec.history.empty() && j.rec.history.back().ended_at < 0) {
          AttemptRecord& att = j.rec.history.back();
          att.ended_at = now;
          att.exit_status = 1;
          att.reason = FailureReason::kServiceRestart;
        }
        j.rec.last_reason = FailureReason::kServiceRestart;
        m_failures_[static_cast<std::size_t>(FailureReason::kServiceRestart)]
            ->inc();
        j.rec.status = JobStatus::kPending;
        restart_requeue.push_back(id);
        for (WorkerId wid : assigned) {
          Worker& w = workers_.at(wid);
          if (w.job == id) {
            w.job = 0;
            w.busy = false;
            w.task_id.clear();
          }
        }
      }
    }
    // Deadlines are submission-relative and survive retries, so they are
    // re-armed for every unsettled job; one already overdue fires "now"
    // (engine order keeps this deterministic).
    if (!job_settled(j.rec.status) && js.timeout_at >= 0) {
      j.timeout = machine_->engine().call_at(
          std::max(js.timeout_at, now), [this, id] { deadline_expired(id); });
    }
  }

  // Queue: the checkpointed FIFO first (verbatim order), then the jobs whose
  // running attempts died with the service, in ascending id order.
  for (JobId id : snap.queue_order) {
    Job* j = jobs_.find(id);
    if (!j || j->rec.status != JobStatus::kPending || j->in_backoff) {
      throw SnapshotError("snapshot: queue entry is not a queued job");
    }
    queue_.push_back(id, j->rec.spec.priority,
                     static_cast<std::uint32_t>(j->rec.spec.workers_needed()));
  }
  for (JobId id : restart_requeue) {
    Job& j = jobs_.at(id);
    queue_.push_back(id, j.rec.spec.priority,
                     static_cast<std::uint32_t>(j.rec.spec.workers_needed()));
  }

  for (const NodeHealthSnap& nh : snap.node_health) {
    node_health_[nh.node] =
        NodeHealth{nh.evictions, nh.banned, nh.banned_until};
  }

  // Elastic state: horizons and drain flags verbatim; a drain deadline
  // already overdue fires "now" so the block's jobs are still requeued.
  elastic_capacity_ = snap.elastic_capacity;
  for (const ElasticNodeSnap& en : snap.elastic) {
    NodeElastic e;
    e.expires_at = en.expires_at;
    e.draining = en.draining;
    e.drain_at = en.drain_at;
    const os::NodeId node = en.node;
    if (en.draining && en.drain_at >= 0) {
      e.drain_timer = machine_->engine().call_at(
          std::max(en.drain_at, now), [this, node] { drain_deadline(node); });
    }
    node_elastic_[node] = e;
  }

  // Staging state: blob identities and acked residency survive the crash
  // (node-local caches belong to the nodes, which did not restart), so the
  // replication planner picks up warm exactly where it left off. In-flight
  // stage-ins died with the service and are re-staged on demand.
  for (const BlobSnap& b : snap.blobs) {
    blob_info_[b.path] = {b.digest, b.bytes};
  }
  for (const NodeCacheSnap& nc : snap.node_caches) {
    for (const std::uint64_t d : nc.digests) residency_.add(nc.node, d);
  }

  m_workers_connected_->set(0);
  m_jobs_running_->set(static_cast<std::int64_t>(running_));
  // Seed a *fresh* tracer (a restarted service process) with the pre-crash
  // journal. When the tracer survived the crash — same-machine restore, as
  // in the simulated drills — it already holds these spans; importing again
  // would duplicate the whole history.
  if (obs::Tracer* tr = tracer(); tr && tr->spans().empty()) {
    tr->import_spans(snap.journal);
  }

  if (!queue_.empty() || running_ != 0 || backing_off_ != 0) {
    all_done_->close();
  }
  m_restores_->inc();
  restored_at_ = now;
  if (awaiting_ > 0) {
    reconcile_timer_ = machine_->engine().call_in(
        config_.restore_grace, [this] { reconcile_ghosts(); });
  }
}

}  // namespace jets::core
