// Snapshot codec + the two Service halves that depend on it:
// checkpoint() (live tables -> image) and apply_snapshot() (Snapshot ->
// freshly constructed service). Each row's layout is written once, as a
// field list; the Writer, the Reader and the MinSize counter walk those
// lists. One encoder body, encode_image(), writes the image from either
// row source: a decoded Snapshot (the reference encoder) or the service's
// live tables. See snapshot.hh for the wire format and DESIGN.md §10 for
// the determinism argument.
#include "core/snapshot.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstring>
#include <span>
#include <sstream>
#include <type_traits>
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
constexpr std::uint32_t kRequired = 1u << kMeta | 1u << kJobs | 1u << kQueue |
                                    1u << kWorkers | 1u << kRng;

constexpr std::uint8_t kFlagLittleEndian = 0x01;

// --- Field lists ---------------------------------------------------------------
// Each row names its fields once, in wire order. A field's C++ type is its
// wire type: an int or fixed-width integer is that many little-endian
// bytes, a bool or an enum one byte, a double its bits as u64, a string a
// u32 length and the bytes, a vector or map a u32 count and the items, an
// optional a u8 flag and the value, and a pair or record its fields in
// order.

/// T is the row type R (const or not).
template <typename T, typename... R>
concept Row = (std::same_as<std::remove_const_t<T>, R> || ...);

/// Live rows the checkpoint writes in place, named like the rows they
/// stand for.
struct BlobView {
  const std::string& path;
  std::uint64_t digest;
  std::uint64_t bytes;
};
struct NodeCacheView {
  std::uint32_t node;
  const std::vector<std::uint64_t>& digests;
};
/// A list only its walk can count: `each(emit)` emits the items. The
/// Writer back-patches its u32 count.
template <typename F>
struct Walk {
  F each;
};

template <typename Ar, Row<net::Address> A>
void fields(Ar& ar, A& a) {
  ar(a.node, a.port);
}

template <typename Ar, Row<RetryPolicy> P>
void fields(Ar& ar, P& p) {
  ar(p.max_attempts, p.infra_exempt, p.max_infra_failures, p.backoff_base,
     p.backoff_factor, p.backoff_max, p.backoff_jitter, p.jitter_seed);
}

template <typename Ar, Row<JobSpec> S>
void fields(Ar& ar, S& s) {
  ar(s.kind, s.nprocs, s.ppn, s.argv, s.vars, s.timeout, s.priority, s.retry,
     s.stage_files, s.expected_runtime);
}

template <typename Ar, Row<AttemptRecord> A>
void fields(Ar& ar, A& a) {
  ar(a.attempt, a.started_at, a.ended_at, a.exit_status, a.reason, a.backoff);
}

template <typename Ar, Row<JobRecord> R>
void fields(Ar& ar, R& r) {
  ar(r.id, r.spec, r.status, r.attempts, r.app_failures, r.infra_failures,
     r.last_reason, r.history, r.nodes, r.submitted_at, r.started_at,
     r.finished_at);
}

template <typename Ar, Row<obs::Attr> A>
void fields(Ar& ar, A& a) {
  ar(a.key, a.value);
}

template <typename Ar, Row<obs::Span> S>
void fields(Ar& ar, S& s) {
  ar(s.id, s.parent, s.name, s.track, s.begin, s.end, s.attrs);
}

template <typename Ar, Row<NodeHealthSnap> N>
void fields(Ar& ar, N& n) {
  ar(n.node, n.evictions, n.banned, n.banned_until);
}

template <typename Ar, Row<ElasticNodeSnap> E>
void fields(Ar& ar, E& e) {
  ar(e.node, e.expires_at, e.draining, e.drain_at);
}

template <typename Ar, Row<BlobSnap, BlobView> B>
void fields(Ar& ar, B& b) {
  ar(b.path, b.digest, b.bytes);
}

template <typename Ar, Row<NodeCacheSnap, NodeCacheView> C>
void fields(Ar& ar, C& c) {
  ar(c.node, c.digests);
}

/// The meta row: a Snapshot's scalars, or an ImageMeta's.
template <typename Ar, typename S>
void meta_fields(Ar& ar, S& s) {
  ar(s.taken_at, s.addr, s.next_worker_seq, s.next_task, s.peak_capacity);
}

/// The job row: a JobSnap, or a view of a live job with its members.
template <typename Ar, typename J>
void job_fields(Ar& ar, J& j) {
  ar(j.rec, j.task_id, j.assigned_seq, j.in_backoff, j.retry_at, j.timeout_at,
     j.deadline_passed);
}

/// The worker row: a WorkerSnap or a live Service::Worker, whose ready-pool
/// membership the pool keeps apart.
template <typename Ar, typename W, typename B, typename U>
void worker_fields(Ar& ar, W& w, B& ready, U& ready_rank) {
  ar(w.seq, w.node, w.connected, w.busy, w.evicted, w.job, w.task_id,
     w.last_heard, ready, ready_rank);
}

template <typename Ar, Row<JobSnap> J>
void fields(Ar& ar, J& j) {
  job_fields(ar, j);
}

template <typename Ar, Row<WorkerSnap> W>
void fields(Ar& ar, W& w) {
  worker_fields(ar, w, w.ready, w.ready_rank);
}

/// The values an enum may take on the wire, and what it is.
struct EnumRange {
  std::size_t count;
  const char* what;
};
constexpr EnumRange range_of(JobKind) { return {2, "job kind"}; }
constexpr EnumRange range_of(JobStatus) {
  return {static_cast<std::size_t>(JobStatus::kQuarantined) + 1, "job status"};
}
constexpr EnumRange range_of(FailureReason) {
  return {kFailureReasonCount, "failure reason"};
}

/// True if T is an instance of the template W.
template <typename T, template <typename...> class W>
constexpr bool kIs = false;
template <template <typename...> class W, typename... A>
constexpr bool kIs<W<A...>, W> = true;

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

// --- Archives ------------------------------------------------------------------

/// Appends the image to one buffer reserved up front. Each fixed-width
/// field is one bounded copy of its little-endian bytes; the buffer's size
/// runs ahead of the write position a batch at a time, so only bytes about
/// to be written are ever touched.
class Writer {
 public:
  explicit Writer(std::size_t capacity) { buf_.reserve(capacity); }

  template <typename... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }

  /// Appends a complete tagged section built by `body` (payload length is
  /// back-patched, so sections compose without a second pass).
  template <typename Body>
  void section(std::uint16_t tag, Body&& body) {
    put(tag);
    const std::size_t len_at = pos_;
    put(std::uint64_t{0});  // placeholder
    body(*this);
    overwrite(len_at, static_cast<std::uint64_t>(pos_ - len_at - 8));
  }

  std::vector<std::uint8_t> take() && {
    buf_.resize(pos_);
    return std::move(buf_);
  }

 private:
  static constexpr std::size_t kBatch = 64 * 1024;

  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
      fixed(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_integral_v<T>) {
      fixed(v);
    } else if constexpr (std::is_same_v<T, double>) {
      fixed(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      fixed(static_cast<std::uint32_t>(v.size()));
      if (!v.empty()) std::memcpy(room(v.size()), v.data(), v.size());
    } else if constexpr (kIs<T, std::optional>) {
      put(v.has_value());
      if (v) put(*v);
    } else if constexpr (kIs<T, std::pair>) {
      put(v.first);
      put(v.second);
    } else if constexpr (kIs<T, Walk>) {
      // Rows known only once walked (a live source that filters as it
      // goes): the count is back-patched.
      const std::size_t at = pos_;
      std::uint32_t n = 0;
      fixed(n);
      v.each([&](const auto& item) {
        put(item);
        ++n;
      });
      overwrite(at, n);
    } else if constexpr (kIs<T, std::vector> || kIs<T, std::map>) {
      fixed(static_cast<std::uint32_t>(v.size()));
      for (const auto& item : v) put(item);
    } else {
      fields(*this, v);
    }
  }

  template <typename U>
  void fixed(U v) {
    const auto b = to_le(v);
    std::memcpy(room(sizeof(U)), b.data(), sizeof(U));
  }
  template <typename U>
  void overwrite(std::size_t at, U v) {
    const auto b = to_le(v);
    std::memcpy(buf_.data() + at, b.data(), sizeof(U));
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

/// Minimum wire bytes of a row: its fixed-width fields plus empty strings,
/// lists and optionals. Sizes the Reader's reservations.
class MinSize {
 public:
  template <typename... T>
  void operator()(const T&... v) {
    (add(v), ...);
  }
  std::size_t bytes() const { return n_; }

 private:
  template <typename T>
  void add(const T& v) {
    if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T> ||
                  kIs<T, std::optional>) {
      n_ += 1;
    } else if constexpr (std::is_arithmetic_v<T>) {
      n_ += sizeof(T);
    } else if constexpr (kIs<T, std::pair>) {
      add(v.first);
      add(v.second);
    } else if constexpr (requires { v.size(); }) {  // string, vector, map
      n_ += 4;
    } else {
      fields(*this, v);
    }
  }

  std::size_t n_ = 0;
};

/// MinSize of a T row, computed once.
template <typename T>
std::size_t min_row_size() {
  static const std::size_t n = [] {
    MinSize m;
    m(T{});
    return m.bytes();
  }();
  return n;
}

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  template <typename... T>
  void operator()(T&... v) {
    (get(v), ...);
  }
  template <typename T>
  T read() {
    T v{};
    get(v);
    return v;
  }

  /// Reads a list whose count is a `Count`, reserving room for its rows
  /// but never more than the remaining bytes could hold: a hostile count
  /// cannot force a large allocation, it just runs into truncation.
  template <typename Count, typename T>
  void list(std::vector<T>& v) {
    Count n = read<Count>();
    const std::uint64_t fits = remaining() / min_row_size<T>();
    v.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, fits)));
    for (; n > 0; --n) get(v.emplace_back());
  }

  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// Bounded view of the next `n` bytes (one section's payload), consumed
  /// from this reader — a corrupt section can never read past its length.
  Reader sub(std::size_t n) { return Reader(take(n), n); }

 private:
  template <typename T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = read<std::uint8_t>() != 0;
    } else if constexpr (std::is_enum_v<T>) {
      const std::uint8_t b = read<std::uint8_t>();
      if (b >= range_of(T{}).count) {
        throw SnapshotError(std::string("snapshot: bad ") + range_of(T{}).what);
      }
      v = static_cast<T>(b);
    } else if constexpr (std::is_integral_v<T>) {
      v = from_le<T>(take(sizeof(T)));
    } else if constexpr (std::is_same_v<T, double>) {
      v = std::bit_cast<double>(read<std::uint64_t>());
    } else if constexpr (std::is_same_v<T, std::string>) {
      const std::uint32_t n = read<std::uint32_t>();
      v.assign(reinterpret_cast<const char*>(take(n)), n);
    } else if constexpr (kIs<T, std::optional>) {
      if (read<bool>()) get(v.emplace());
    } else if constexpr (kIs<T, std::pair>) {
      get(v.first);
      get(v.second);
    } else if constexpr (kIs<T, std::vector>) {
      list<std::uint32_t>(v);
    } else if constexpr (kIs<T, std::map>) {  // a later duplicate key wins
      for (std::uint32_t n = read<std::uint32_t>(); n > 0; --n) {
        get(v[read<typename T::key_type>()]);
      }
    } else {
      fields(*this, v);
      if constexpr (std::is_same_v<T, JobSpec>) {
        if (!v.shape_valid()) throw SnapshotError("snapshot: bad nprocs or ppn");
      }
    }
  }

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

// --- Images ------------------------------------------------------------------

/// Scalars of the meta and elastic sections, named as in Snapshot.
struct ImageMeta {
  sim::Time taken_at = 0;
  net::Address addr{};
  std::uint64_t next_worker_seq = 0;
  std::uint64_t next_task = 0;
  std::uint64_t peak_capacity = 0;
  std::uint64_t elastic_capacity = 0;
};

/// Bytes to reserve for an image: generous per-row sizes, so a typical
/// checkpoint is written into a single allocation (a job row with a short
/// argv, one staged input and one attempt is ~190 bytes). A larger image
/// grows the buffer by doubling.
std::size_t image_capacity(std::size_t jobs, std::size_t workers,
                           std::size_t spans) {
  return 16 * 1024 + 256 * jobs + 96 * workers + 128 * spans;
}

/// The one encoder body: header, section order, framing and section-level
/// counts; every row's layout comes from its field list. `Rows` says only
/// where the rows come from — a decoded Snapshot (SnapshotRows) or the live
/// service (Service::ImageRows) — by providing, per section, its row count
/// and a visitor over its rows.
template <typename Rows>
std::vector<std::uint8_t> encode_image(const Rows& rows) {
  const std::span<const obs::Span> journal = rows.journal();
  Writer w(image_capacity(rows.job_count(), rows.worker_count(),
                          journal.size()));
  w(Snapshot::kMagic, Snapshot::kVersion, kFlagLittleEndian);
  const ImageMeta meta = rows.meta();
  w.section(kMeta, [&](Writer& s) { meta_fields(s, meta); });
  w.section(kRng, [&](Writer& s) { s(rows.rng_state()); });
  w.section(kCounters, [&](Writer& s) {
    s(static_cast<std::uint32_t>(rows.counter_count()));
    rows.counters([&](const std::string& name, std::uint64_t value) {
      s(name, value);
    });
  });
  w.section(kJobs, [&](Writer& s) {
    s(static_cast<std::uint64_t>(rows.job_count()));
    rows.jobs([&](const auto& job) { job_fields(s, job); });
  });
  w.section(kQueue, [&](Writer& s) {
    s(static_cast<std::uint64_t>(rows.queue_count()));
    rows.queue([&](JobId id) { s(id); });
  });
  w.section(kWorkers, [&](Writer& s) {
    s(static_cast<std::uint64_t>(rows.worker_count()));
    rows.workers([&](const auto& wk, bool ready, std::uint64_t ready_rank) {
      worker_fields(s, wk, ready, ready_rank);
    });
  });
  w.section(kNodes, [&](Writer& s) {
    s(static_cast<std::uint32_t>(rows.node_health_count()));
    rows.node_health([&](const NodeHealthSnap& nh) { s(nh); });
  });
  w.section(kStaging, [&](Writer& s) {
    s(static_cast<std::uint32_t>(rows.blob_count()));
    rows.blobs([&](const auto& blob) { s(blob); });
    s(Walk{[&](auto&& emit) { rows.node_caches(emit); }});
  });
  w.section(kElastic, [&](Writer& s) {
    s(meta.elastic_capacity, static_cast<std::uint32_t>(rows.elastic_count()));
    rows.elastic([&](const ElasticNodeSnap& en) { s(en); });
  });
  w.section(kJournal, [&](Writer& s) {
    s(static_cast<std::uint64_t>(journal.size()));
    for (const obs::Span& sp : journal) s(sp);
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
    for (const JobSnap& j : s_.jobs) fn(j);
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
    for (const BlobSnap& b : s_.blobs) fn(b);
  }
  template <typename Fn>
  void node_caches(Fn&& fn) const {
    for (const NodeCacheSnap& nc : s_.node_caches) fn(nc);
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

/// A live job as its row: the record and task id read in place, the
/// timers' deadlines (-1 = not armed), and its workers' seqs as a walk.
template <typename Seqs>
struct LiveJob {
  const JobRecord& rec;
  const std::string& task_id;
  const Seqs& assigned_seq;
  bool in_backoff;
  sim::Time retry_at;
  sim::Time timeout_at;
  bool deadline_passed;
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
      // Only a running job has an attempt's workers, and one may already
      // be gone (EOF under a running job); only workers still in the table
      // are written.
      const Walk seqs{[&](auto&& emit) {
        if (job.rec.status != JobStatus::kRunning) return;
        for (WorkerId wid : job.assigned) {
          if (const Worker* w = svc_.workers_.find(wid)) emit(w->seq);
        }
      }};
      fn(LiveJob{job.rec, job.task_id, seqs, job.in_backoff,
                 job.retry_timer.fire_time().value_or(-1),
                 job.timeout.fire_time().value_or(-1), job.deadline_passed});
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
      fn(BlobView{path, info.first, info.second});
    }
  }
  /// Acked residency only: pending stage-ins are not captured (see
  /// NodeCacheSnap).
  template <typename Fn>
  void node_caches(Fn&& fn) const {
    svc_.residency_.for_each_resident(
        [&](std::uint32_t node, const std::vector<std::uint64_t>& digests) {
          fn(NodeCacheView{node, digests});
        });
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

std::vector<std::uint8_t> Snapshot::serialize() const {
  return encode_image(SnapshotRows(*this));
}

Checkpoint Service::checkpoint() const {
  return Checkpoint(encode_image(ImageRows(*this)));
}

Snapshot Snapshot::parse(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes.data(), bytes.size());
  if (r.read<std::uint32_t>() != kMagic) throw SnapshotError("snapshot: bad magic");
  const auto version = r.read<std::uint32_t>();
  if (version != kVersion) {
    throw SnapshotError("snapshot: unsupported version " + std::to_string(version));
  }
  if ((r.read<std::uint8_t>() & kFlagLittleEndian) == 0) {
    throw SnapshotError("snapshot: unsupported byte order");
  }
  Snapshot out;
  std::uint32_t seen = 0;  // bit per section tag read
  while (!r.done()) {
    const auto tag = r.read<std::uint16_t>();
    const auto len = r.read<std::uint64_t>();
    if (len > r.remaining()) throw SnapshotError("snapshot truncated");
    Reader s = r.sub(static_cast<std::size_t>(len));
    switch (tag) {
      case kMeta: meta_fields(s, out); break;
      case kRng: s(out.rng_state); break;
      case kCounters: s(out.counters); break;
      case kJobs: s.list<std::uint64_t>(out.jobs); break;
      case kQueue: s.list<std::uint64_t>(out.queue_order); break;
      case kWorkers: s.list<std::uint64_t>(out.workers); break;
      case kNodes: s(out.node_health); break;
      case kStaging: s(out.blobs, out.node_caches); break;
      case kElastic: s(out.elastic_capacity, out.elastic); break;
      case kJournal: s.list<std::uint64_t>(out.journal); break;
      default: break;  // unknown section from a newer writer: skipped by length
    }
    if (tag < 32) seen |= 1u << tag;
  }
  if ((seen & kRequired) != kRequired) {
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
    metrics_.counter(name).value = value;
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
  if (awaiting_ > 0) {
    reconcile_timer_ = machine_->engine().call_in(
        kRestoreGrace, [this] { reconcile_ghosts(); });
  }
}

}  // namespace jets::core
