// Host-cost ledger for the benchmark binary, measured from outside src/.
//
// Two instruments, both owned by the benchmark binary:
//
//   * a counting global operator new (ledger.cc): every allocation bumps
//     one counter, in every run. While a Tracing session is open it also
//     credits the allocation to the layer that is executing;
//   * an ITIMER_PROF sampler: while a Tracing session is open, each
//     profiling tick credits one sample to the executing layer.
//
// "The executing layer" is decided in this order:
//   1. a LayerScope the harness opened around a public synchronous call
//      (checkpoint, restore, graph build, ...);
//   2. outside an EngineRun, the harness itself (Layer::kBench);
//   3. inside an EngineRun with no actor resumed, the engine (Layer::kSim:
//      dispatch, the heap, timer callbacks, arena flushes);
//   4. otherwise the resumed actor's layer, read from the active Ledger:
//      mapped from its spawn name by classify(), refined by retag().
//
// The simulator is single-threaded, so "executing" is well defined; the
// signal handler only reads plain words and a fixed-size table that is
// never reallocated.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "sim/engine.hh"

namespace perfbench {

enum class Layer : std::uint8_t {
  kBench,    // the harness: set-up code, its own actors, sampling loops
  kSim,      // engine dispatch with no actor resumed
  kService,  // jets-* service actors (accept, dispatch, conns, waiters)
  kWorker,   // jets-worker, jets-heartbeat, task:* wrappers
  kPmi,      // mpiexec*, hydra_pmi_proxy
  kMpi,      // mpi-acceptor and MPI rank processes (<app>:<rank>)
  kOs,       // reaper actors
  kSwift,    // swift-stmt, coasters-block, elastic/*
  kApps,     // non-MPI application processes
  kTeardown, // destruction of a finished testbed
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Metric prefix of a layer ("sim", "core.service", ...).
const char* layer_name(Layer layer);

/// Layer of an actor from the name it was spawned with.
Layer classify(std::string_view actor_name);

/// operator new calls since process start (all threads; there is one).
std::uint64_t alloc_count();

/// Per-layer totals accumulated while a Tracing session was open.
struct LayerTotals {
  std::array<std::uint64_t, kLayerCount> allocs{};
  std::array<std::uint64_t, kLayerCount> samples{};
};
LayerTotals layer_totals();

/// Maps one engine's actors to layers while alive. At most one Ledger
/// exists at a time.
class Ledger : public jets::sim::EngineObserver {
 public:
  explicit Ledger(jets::sim::Engine& engine);
  ~Ledger() override;
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  void on_spawn(jets::sim::Time, jets::sim::ActorId id,
                const std::string& name) override;
  void on_finish(jets::sim::Time, jets::sim::ActorId,
                 const std::string&) override {}
  void on_kill(jets::sim::Time, jets::sim::ActorId,
               const std::string&) override {}

  /// Re-labels an actor, e.g. a task:* wrapper while it runs an app body.
  void retag(jets::sim::ActorId id, Layer layer);
  Layer layer_of(jets::sim::ActorId id) const;

  /// Layer of the actor currently resumed by the engine.
  Layer running_layer() const;

  /// The active ledger, or nullptr.
  static Ledger* active();

 private:
  struct FreeDeleter {
    void operator()(std::uint8_t* p) const;
  };
  jets::sim::Engine* engine_;
  // Indexed by actor id; ids are dense and never reused. Fixed capacity
  // (zeroed lazily by calloc) so the signal handler never reads a buffer
  // being reallocated.
  std::unique_ptr<std::uint8_t[], FreeDeleter> layers_;
  std::unique_ptr<jets::sim::ScopedObserver> observer_;
};

/// Marks the extent of engine.run()/run_until() calls made by the harness.
class EngineRun {
 public:
  EngineRun();
  ~EngineRun();
  EngineRun(const EngineRun&) = delete;
  EngineRun& operator=(const EngineRun&) = delete;

 private:
  bool prev_;
};

/// Credits everything executed in its extent to `layer`.
class LayerScope {
 public:
  explicit LayerScope(Layer layer);
  ~LayerScope();
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  int prev_;
};

/// Per-layer attribution for the lifetime of the object: allocations are
/// credited to layers and an ITIMER_PROF sampler ticks every `interval_us`
/// of process CPU time.
class Tracing {
 public:
  explicit Tracing(int interval_us);
  ~Tracing();
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;
};

}  // namespace perfbench
