#include "os/cas.hh"

namespace jets::os {

CasDigest cas_digest(std::string_view path, std::uint64_t bytes) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  for (char c : path) mix(static_cast<std::uint8_t>(c));
  for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(bytes >> (8 * i)));
  return h;
}

sim::Task<std::vector<CasDigest>> CasStore::put(CasDigest d, std::string path,
                                                std::uint64_t bytes) {
  std::vector<CasDigest> evicted;
  auto it = entries_.find(d);
  if (it != entries_.end()) {
    ++stats_.hits;
    lru_.erase(it->second.tick);
    it->second.tick = ++next_tick_;
    lru_.emplace(it->second.tick, d);
    co_return evicted;
  }
  if (capacity_ > 0 && bytes <= capacity_) {
    make_room(bytes, &evicted);
  }
  ++stats_.insertions;
  stored_bytes_ += bytes;
  Entry e;
  e.path = path;
  e.bytes = bytes;
  e.tick = ++next_tick_;
  // Register (and pin) before the backing write so a concurrent put of the
  // same digest dedups against the in-flight insertion instead of writing
  // twice, and so the entry cannot be evicted out from under its own write.
  e.refs = 1;
  entries_.emplace(d, std::move(e));
  lru_.emplace(next_tick_, d);
  co_await backing_->write(path, bytes);
  unpin(d);
  co_return evicted;
}

bool CasStore::touch(CasDigest d) {
  auto it = entries_.find(d);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  lru_.erase(it->second.tick);
  it->second.tick = ++next_tick_;
  lru_.emplace(it->second.tick, d);
  return true;
}

void CasStore::pin(CasDigest d) {
  auto it = entries_.find(d);
  if (it != entries_.end()) ++it->second.refs;
}

void CasStore::unpin(CasDigest d) {
  auto it = entries_.find(d);
  if (it != entries_.end() && it->second.refs > 0) --it->second.refs;
}

void CasStore::make_room(std::uint64_t need, std::vector<CasDigest>* out) {
  auto lit = lru_.begin();
  while (stored_bytes_ + need > capacity_ && lit != lru_.end()) {
    const CasDigest victim = lit->second;
    auto eit = entries_.find(victim);
    if (eit->second.refs > 0) {  // pinned: skip, try the next-oldest
      ++lit;
      continue;
    }
    stored_bytes_ -= eit->second.bytes;
    backing_->remove(eit->second.path);
    entries_.erase(eit);
    lit = lru_.erase(lit);
    ++stats_.evictions;
    out->push_back(victim);
  }
}

}  // namespace jets::os
