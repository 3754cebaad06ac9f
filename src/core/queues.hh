// The dispatcher's two queues: the pending-job backlog and the ready-worker
// pool (core::Service owns one of each).
//
// Both keep O(1)-amortized membership changes at any scale with the same
// trick the engine's event heap uses for cancelled events: removal retires
// an entry's *ticket* (a dense per-id vector), stale entries are dropped
// when they surface at a scan front, and wholesale compaction runs once
// stale copies outnumber live ones. The optional index each keeps (the
// priority buckets, the node-sorted mirror) is chosen at construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/job.hh"
#include "os/machine.hh"

namespace jets::core {

/// A worker's generation-checked SlotMap handle (see core/table.hh).
using WorkerId = std::uint64_t;

/// Pending-job backlog. Queue entries carry the job's (immutable) width and
/// priority as a struct-of-arrays sidecar, so dispatch scans never touch
/// the job table. A requeue/deadline/backfill-heavy workload never pays
/// O(n) per settle the way std::erase on a deque did. Tickets are globally
/// monotone: a job requeued after a retry gets a fresh ticket, so its old
/// entry reads stale (no ABA).
class PendingQueue {
 public:
  struct Entry {
    JobId id = 0;
    std::uint64_t ticket = 0;
    std::uint32_t width = 0;  // JobSpec::workers_needed(), cached
    int priority = 0;
  };

  /// `buckets`: keep the priority-bucket mirror pop_first_fit() scans. Only
  /// the backfill policy pays for it.
  explicit PendingQueue(bool buckets = false) : use_buckets_(buckets) {}

  void push_back(JobId id, int priority, std::uint32_t width) {
    const std::uint64_t t = ++next_ticket_;
    ticket_slot(id) = t;
    ++live_;
    fifo_.push_back(Entry{id, t, width, priority});
    if (use_buckets_) {
      buckets_[priority].push_back(Entry{id, t, width, priority});
      ++bucket_entries_;
    }
  }
  void erase(JobId id) {
    if (id == 0 || id > tickets_.size()) return;
    std::uint64_t& t = tickets_[id - 1];
    if (t == 0) return;  // not queued (e.g. backing off): no-op as before
    t = 0;
    --live_;
    maybe_compact();
  }
  /// Head of the live FIFO; requires !empty().
  JobId front() {
    drop_stale_front();
    return fifo_.front().id;
  }
  /// Cached width of the live head; requires !empty().
  std::uint32_t front_width() {
    drop_stale_front();
    return fifo_.front().width;
  }
  void pop_front() {
    drop_stale_front();
    tickets_[fifo_.front().id - 1] = 0;
    fifo_.pop_front();
    --live_;
  }
  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  std::size_t physical_size() const { return fifo_.size(); }
  /// Visits live jobs in submission order (reaping and consistency
  /// walks); stale entries are skipped in place.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : fifo_) {
      if (is_live(e)) fn(e.id, e.width);
    }
  }

  /// First job in (priority desc, FIFO-within-priority) order whose
  /// cached width `fits`; removed from the queue when found. `fits` may
  /// take (width) or (id, width) — the elastic claim gate needs the id
  /// to look up the job's expected runtime. Requires the bucket mirror.
  template <typename Fits>
  std::optional<JobId> pop_first_fit(Fits&& fits) {
    const auto accepts = [&fits](const Entry& e) {
      if constexpr (std::is_invocable_v<Fits&, JobId, std::uint32_t>) {
        return static_cast<bool>(fits(e.id, e.width));
      } else {
        return static_cast<bool>(fits(e.width));
      }
    };
    for (auto bit = buckets_.begin(); bit != buckets_.end();) {
      std::deque<Entry>& bucket = bit->second;
      // Retired entries at the bucket front are free to drop.
      while (!bucket.empty() && !is_live(bucket.front())) {
        bucket.pop_front();
        --bucket_entries_;
      }
      for (const Entry& e : bucket) {
        if (!is_live(e)) continue;
        if (accepts(e)) {
          const JobId id = e.id;
          tickets_[id - 1] = 0;  // entry (and its fifo copy) now stale
          --live_;
          maybe_compact();
          return id;
        }
      }
      if (bucket.empty()) {
        bit = buckets_.erase(bit);
      } else {
        ++bit;
      }
    }
    return std::nullopt;
  }

 private:
  bool is_live(const Entry& e) const {
    return tickets_[e.id - 1] == e.ticket;
  }
  std::uint64_t& ticket_slot(JobId id) {
    if (id > tickets_.size()) tickets_.resize(static_cast<std::size_t>(id));
    return tickets_[id - 1];
  }
  void drop_stale_front() {
    while (!fifo_.empty() && !is_live(fifo_.front())) fifo_.pop_front();
  }
  /// Rebuilds the deques (preserving live order) once stale copies
  /// dominate; amortized O(1) against the erases that created them.
  void maybe_compact() {
    if (fifo_.size() > 2 * live_ + 64) {
      std::deque<Entry> keep;
      for (const Entry& e : fifo_) {
        if (is_live(e)) keep.push_back(e);
      }
      fifo_.swap(keep);
    }
    if (use_buckets_ && bucket_entries_ > 2 * live_ + 64) {
      bucket_entries_ = 0;
      for (auto bit = buckets_.begin(); bit != buckets_.end();) {
        std::deque<Entry> keep;
        for (const Entry& e : bit->second) {
          if (is_live(e)) keep.push_back(e);
        }
        bit->second.swap(keep);
        bucket_entries_ += bit->second.size();
        bit = bit->second.empty() ? buckets_.erase(bit) : std::next(bit);
      }
    }
  }

  bool use_buckets_;
  std::uint64_t next_ticket_ = 0;
  std::size_t live_ = 0;
  std::size_t bucket_entries_ = 0;
  std::deque<Entry> fifo_;
  std::map<int, std::deque<Entry>, std::greater<int>> buckets_;
  /// Dense per-JobId live ticket (0 = not queued), indexed by id-1.
  std::vector<std::uint64_t> tickets_;
};

/// Ready-worker pool. FCFS claims pop the FIFO deque; removal anywhere
/// else is lazy-deletion on a per-worker-slot ticket (workers re-enter the
/// pool after every job, so tickets — not ids — are what keeps a stale
/// entry from aliasing the worker's next enlistment). An indexed pool also
/// keeps a mirror sorted by (node, arrival) up to date eagerly, so each
/// network-aware placement stays one sliding-window scan.
class ReadyPool {
 public:
  struct Entry {
    os::NodeId node = 0;
    std::uint64_t arrival = 0;
    WorkerId wid = 0;
    auto operator<=>(const Entry&) const = default;
  };

  /// `indexed`: keep the node-sorted mirror claim_best() scans.
  explicit ReadyPool(bool indexed = false) : indexed_(indexed) {}

  void push_back(WorkerId wid, os::NodeId node) {
    const std::uint64_t t = ++next_ticket_;
    ticket_slot(wid) = t;
    ++live_;
    fifo_.push_back(FifoEntry{wid, t});
    if (indexed_) {
      const Entry e{node, arrivals_++, wid};
      by_node_.insert(std::upper_bound(by_node_.begin(), by_node_.end(), e),
                      e);
    }
  }
  void erase(WorkerId wid, os::NodeId node) {
    const std::uint32_t slot = slot_of(wid);
    if (slot >= tickets_.size() || tickets_[slot] == 0) return;  // not pooled
    tickets_[slot] = 0;
    --live_;
    maybe_compact();
    if (indexed_) index_erase(wid, node);
  }
  /// Live head of the FIFO; requires !empty().
  WorkerId front() {
    drop_stale_front();
    return fifo_.front().wid;
  }
  void erase_front(os::NodeId node) {
    drop_stale_front();
    const WorkerId wid = fifo_.front().wid;
    tickets_[slot_of(wid)] = 0;
    fifo_.pop_front();
    --live_;
    if (indexed_) index_erase(wid, node);
  }
  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  std::size_t physical_size() const { return fifo_.size(); }
  /// Visits pooled workers in FIFO order; stale entries are skipped.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const FifoEntry& e : fifo_) {
      if (is_live(e)) fn(e.wid);
    }
  }
  /// Live FIFO view for the consistency test hook (cold path).
  std::vector<WorkerId> live_fifo() const {
    std::vector<WorkerId> out;
    out.reserve(live_);
    for_each([&](WorkerId wid) { out.push_back(wid); });
    return out;
  }
  const std::vector<Entry>& index() const { return by_node_; }

  /// Claims `count` workers as one window of the node-sorted mirror:
  /// `score(window, count)` rates each window (the resident input bytes of
  /// the job being placed), the highest score wins, and ties go to the
  /// smallest node-id span, then the earliest window — so an all-zero
  /// scorer picks the min-span window. Removes the claimed workers from
  /// the pool and returns them in (node, arrival) order. Requires
  /// count <= size() and an indexed pool.
  template <typename Score>
  std::vector<WorkerId> claim_best(std::size_t count, Score&& score) {
    std::size_t best = 0;
    os::NodeId best_span = std::numeric_limits<os::NodeId>::max();
    std::uint64_t best_bytes = 0;
    for (std::size_t i = 0; i + count <= by_node_.size(); ++i) {
      const os::NodeId span = by_node_[i + count - 1].node - by_node_[i].node;
      const std::uint64_t bytes = score(&by_node_[i], count);
      if (bytes > best_bytes || (bytes == best_bytes && span < best_span)) {
        best_bytes = bytes;
        best_span = span;
        best = i;
      }
    }
    std::vector<WorkerId> claimed;
    claimed.reserve(count);
    for (std::size_t k = best; k < best + count; ++k) {
      claimed.push_back(by_node_[k].wid);
    }
    by_node_.erase(by_node_.begin() + static_cast<std::ptrdiff_t>(best),
                   by_node_.begin() + static_cast<std::ptrdiff_t>(best + count));
    for (WorkerId wid : claimed) {
      tickets_[slot_of(wid)] = 0;  // fifo copy goes stale
      --live_;
    }
    maybe_compact();
    return claimed;
  }

 private:
  struct FifoEntry {
    WorkerId wid = 0;
    std::uint64_t ticket = 0;
  };

  static constexpr std::uint32_t slot_of(WorkerId wid) {
    return static_cast<std::uint32_t>(wid & 0xffffffffu);
  }
  bool is_live(const FifoEntry& e) const {
    const std::uint32_t slot = slot_of(e.wid);
    return slot < tickets_.size() && tickets_[slot] == e.ticket;
  }
  std::uint64_t& ticket_slot(WorkerId wid) {
    const std::uint32_t slot = slot_of(wid);
    if (slot >= tickets_.size()) tickets_.resize(slot + 1);
    return tickets_[slot];
  }
  void drop_stale_front() {
    while (!fifo_.empty() && !is_live(fifo_.front())) fifo_.pop_front();
  }
  void maybe_compact() {
    if (fifo_.size() <= 2 * live_ + 64) return;
    std::deque<FifoEntry> keep;
    for (const FifoEntry& e : fifo_) {
      if (is_live(e)) keep.push_back(e);
    }
    fifo_.swap(keep);
  }

  void index_erase(WorkerId wid, os::NodeId node) {
    auto it = std::lower_bound(by_node_.begin(), by_node_.end(),
                               Entry{node, 0, 0});
    for (; it != by_node_.end() && it->node == node; ++it) {
      if (it->wid == wid) {
        by_node_.erase(it);
        return;
      }
    }
  }

  bool indexed_;
  std::uint64_t arrivals_ = 0;
  std::uint64_t next_ticket_ = 0;
  std::size_t live_ = 0;
  std::deque<FifoEntry> fifo_;
  std::vector<Entry> by_node_;  // sorted by (node, arrival)
  /// Dense per-worker-slot live ticket (0 = not in the pool), indexed by
  /// the SlotMap slot of the worker's handle.
  std::vector<std::uint64_t> tickets_;
};

}  // namespace jets::core
