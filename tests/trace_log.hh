// Test helper: a recording observer of the simulation engine.
//
// An EngineObserver receives actor lifecycle callbacks (spawn, finish,
// kill); TraceLog records them with timestamps and offers
// filtering/counting, for tests that assert on process churn ("which proxy
// died first?").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/time.hh"

namespace jets::sim {

struct TraceEvent {
  enum class Kind { kSpawn, kFinish, kKill };
  Kind kind = Kind::kSpawn;
  Time at = 0;
  ActorId actor = 0;
  std::string name;
};

/// Recording observer. Attach with ScopedObserver{engine, log}, whose
/// destructor detaches before the log can go out of scope; any number of
/// observers can be registered at once.
class TraceLog : public EngineObserver {
 public:
  void on_spawn(Time at, ActorId id, const std::string& name) override {
    record({TraceEvent::Kind::kSpawn, at, id, name});
  }
  void on_finish(Time at, ActorId id, const std::string& name) override {
    record({TraceEvent::Kind::kFinish, at, id, name});
  }
  void on_kill(Time at, ActorId id, const std::string& name) override {
    record({TraceEvent::Kind::kKill, at, id, name});
  }

  void record(TraceEvent ev) { events_.push_back(std::move(ev)); }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

  std::size_t count(TraceEvent::Kind kind) const {
    std::size_t n = 0;
    for (const auto& e : events_) n += e.kind == kind ? 1 : 0;
    return n;
  }

  /// Events whose actor name contains `needle` (e.g. "worker", "mpiexec").
  std::vector<TraceEvent> matching(const std::string& needle) const {
    std::vector<TraceEvent> out;
    for (const auto& e : events_) {
      if (e.name.find(needle) != std::string::npos) out.push_back(e);
    }
    return out;
  }

  /// Live actors at the end of the recorded window (spawned, not ended).
  std::size_t live_at_end() const {
    std::size_t live = 0;
    for (const auto& e : events_) {
      if (e.kind == TraceEvent::Kind::kSpawn) {
        ++live;
      } else if (live > 0) {
        --live;
      }
    }
    return live;
  }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace jets::sim
