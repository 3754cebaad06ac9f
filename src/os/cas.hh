// Per-node content-addressed blob store (the staging cache).
//
// A CasStore layers content addressing over a node's FileStore (the
// ZeptoOS ramdisk model in os/filesystem.hh): blobs are keyed by an
// FNV-1a/64 digest of their identity, entries are ref-counted so in-use
// blobs cannot be dropped, and total resident bytes are bounded by a
// capacity with least-recently-used eviction of unpinned entries.
//
// Files in this simulation are metadata only (path + size), so the digest
// is computed over that identity rather than over real bytes; what matters
// for the model is that equal inputs collapse to one key. put() charges
// the backing store's write time once per *insertion* — a put of an
// already-resident digest is a cache hit and costs nothing, which is
// exactly the dedup the service's replication planner banks on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "os/filesystem.hh"
#include "sim/task.hh"

namespace jets::os {

/// Content digest: FNV-1a/64 over the blob's identity.
using CasDigest = std::uint64_t;

/// Digest of a staged file's identity (path + size). Same basis as
/// core::record_digest: FNV-1a/64, mixed byte by byte.
CasDigest cas_digest(std::string_view path, std::uint64_t bytes);

class CasStore {
 public:
  struct Stats {
    std::uint64_t hits = 0;        // touch/put of a resident digest
    std::uint64_t misses = 0;      // touch of an absent digest
    std::uint64_t insertions = 0;  // puts that actually wrote
    std::uint64_t evictions = 0;   // LRU drops to make room
  };

  /// `capacity_bytes` bounds resident blob bytes; 0 = unbounded. Pinned
  /// entries never count as evictable, so a store full of pinned blobs may
  /// exceed its capacity rather than drop data in use.
  explicit CasStore(FileStore& backing, std::uint64_t capacity_bytes = 0)
      : backing_(&backing), capacity_(capacity_bytes) {}
  CasStore(const CasStore&) = delete;
  CasStore& operator=(const CasStore&) = delete;

  bool contains(CasDigest d) const { return entries_.contains(d); }

  /// Inserts the blob unless already resident (then this is a pure LRU
  /// touch). A real insertion evicts least-recently-used unpinned entries
  /// until the new blob fits, then charges the backing store's write time.
  /// Returns the digests evicted to make room (empty on a hit).
  sim::Task<std::vector<CasDigest>> put(CasDigest d, std::string path,
                                        std::uint64_t bytes);

  /// LRU-touches `d`; true on hit. A miss only counts (no side effects).
  bool touch(CasDigest d);

  /// Ref-count an entry in active use; pinned entries survive eviction.
  /// Both are no-ops for absent digests (a pin can race an eviction).
  void pin(CasDigest d);
  void unpin(CasDigest d);

  std::uint64_t stored_bytes() const { return stored_bytes_; }
  std::size_t entries() const { return entries_.size(); }
  std::uint64_t capacity() const { return capacity_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::string path;
    std::uint64_t bytes = 0;
    std::uint32_t refs = 0;
    std::uint64_t tick = 0;  // key into lru_
  };

  /// Evicts LRU unpinned entries until `need` more bytes fit (or nothing
  /// evictable remains); appends the victims' digests to `out`.
  void make_room(std::uint64_t need, std::vector<CasDigest>* out);

  FileStore* backing_;
  std::uint64_t capacity_;
  std::uint64_t stored_bytes_ = 0;
  std::uint64_t next_tick_ = 0;
  /// Ordered maps keep every walk deterministic (the simulation's golden
  /// outputs hash over anything this store influences).
  std::map<CasDigest, Entry> entries_;
  std::map<std::uint64_t, CasDigest> lru_;  // tick -> digest, oldest first
  Stats stats_;
};

}  // namespace jets::os
