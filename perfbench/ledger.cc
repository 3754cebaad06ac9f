#include "ledger.hh"

#include <sys/time.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

namespace perfbench {
namespace {

/// Actor ids past this are credited to the engine; the workloads stay far
/// below it (a few hundred thousand actors per testbed).
constexpr std::size_t kMaxActors = std::size_t{1} << 26;

// Main-thread state. The signal handler reads the atomics below (relaxed
// loads and stores are plain moves on the targets this runs on) and writes
// only g_samples.
std::uint64_t g_allocs = 0;
std::array<std::uint64_t, kLayerCount> g_layer_allocs{};
std::array<std::atomic<std::uint64_t>, kLayerCount> g_samples{};
std::atomic<bool> g_tracing{false};
std::atomic<bool> g_in_engine{false};
std::atomic<int> g_scope{-1};
std::atomic<Ledger*> g_ledger{nullptr};

Layer current_layer() noexcept {
  if (const int scope = g_scope.load(std::memory_order_relaxed); scope >= 0) {
    return static_cast<Layer>(scope);
  }
  if (!g_in_engine.load(std::memory_order_relaxed)) return Layer::kBench;
  const Ledger* ledger = g_ledger.load(std::memory_order_relaxed);
  return ledger ? ledger->running_layer() : Layer::kSim;
}

void* counted_alloc(std::size_t n) noexcept {
  ++g_allocs;
  if (g_tracing.load(std::memory_order_relaxed)) {
    ++g_layer_allocs[static_cast<std::size_t>(current_layer())];
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) noexcept {
  ++g_allocs;
  if (g_tracing.load(std::memory_order_relaxed)) {
    ++g_layer_allocs[static_cast<std::size_t>(current_layer())];
  }
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

void on_sigprof(int) {
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  g_samples[static_cast<std::size_t>(current_layer())].fetch_add(
      1, std::memory_order_relaxed);
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kSim: return "sim";
    case Layer::kService: return "core.service";
    case Layer::kWorker: return "core.worker";
    case Layer::kPmi: return "pmi";
    case Layer::kMpi: return "mpi";
    case Layer::kOs: return "os";
    case Layer::kSwift: return "swift";
    case Layer::kApps: return "apps";
    case Layer::kTeardown: return "teardown";
    case Layer::kCount: break;
  }
  return "?";
}

Layer classify(std::string_view name) {
  auto starts = [&](std::string_view p) { return name.substr(0, p.size()) == p; };
  if (starts("bench")) return Layer::kBench;
  if (name == "jets-worker" || name == "jets-heartbeat" || starts("task:")) {
    return Layer::kWorker;
  }
  if (starts("jets-")) return Layer::kService;
  if (starts("mpiexec") || name == "hydra_pmi_proxy") return Layer::kPmi;
  if (name == "mpi-acceptor") return Layer::kMpi;
  if (name == "reaper") return Layer::kOs;
  if (name == "swift-stmt" || name == "coasters-block" || starts("elastic/")) {
    return Layer::kSwift;
  }
  // MPI ranks are spawned as "<app>:<rank>".
  if (const auto colon = name.rfind(':'); colon != std::string_view::npos &&
                                          colon + 1 < name.size()) {
    const std::string_view rank = name.substr(colon + 1);
    if (rank.find_first_not_of("0123456789") == std::string_view::npos) {
      return Layer::kMpi;
    }
  }
  return Layer::kApps;
}

std::uint64_t alloc_count() { return g_allocs; }

LayerTotals layer_totals() {
  LayerTotals t;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    t.allocs[i] = g_layer_allocs[i];
    t.samples[i] = g_samples[i].load(std::memory_order_relaxed);
  }
  return t;
}

void Ledger::FreeDeleter::operator()(std::uint8_t* p) const { std::free(p); }

Ledger::Ledger(jets::sim::Engine& engine)
    : engine_(&engine),
      layers_(static_cast<std::uint8_t*>(std::calloc(kMaxActors, 1))) {
  if (!layers_) throw std::bad_alloc();
  if (g_ledger.load() != nullptr) throw std::logic_error("one Ledger at a time");
  observer_ = std::make_unique<jets::sim::ScopedObserver>(engine, *this);
  g_ledger.store(this);
}

Ledger::~Ledger() {
  g_ledger.store(nullptr);
  observer_.reset();
}

void Ledger::on_spawn(jets::sim::Time, jets::sim::ActorId id,
                      const std::string& name) {
  retag(id, classify(name));
}

void Ledger::retag(jets::sim::ActorId id, Layer layer) {
  if (id < kMaxActors) layers_[id] = static_cast<std::uint8_t>(layer);
}

Layer Ledger::layer_of(jets::sim::ActorId id) const {
  return id < kMaxActors ? static_cast<Layer>(layers_[id]) : Layer::kSim;
}

Layer Ledger::running_layer() const {
  const jets::sim::ActorId id = engine_->running_actor();
  return id == 0 ? Layer::kSim : layer_of(id);
}

Ledger* Ledger::active() { return g_ledger.load(); }

EngineRun::EngineRun() : prev_(g_in_engine.exchange(true)) {}
EngineRun::~EngineRun() { g_in_engine.store(prev_); }

LayerScope::LayerScope(Layer layer)
    : prev_(g_scope.exchange(static_cast<int>(layer))) {}
LayerScope::~LayerScope() { g_scope.store(prev_); }

Tracing::Tracing(int interval_us) {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_sigprof;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  g_tracing.store(true);
  itimerval tv{};
  tv.it_interval.tv_usec = interval_us;
  tv.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

Tracing::~Tracing() {
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  g_tracing.store(false);
  signal(SIGPROF, SIG_IGN);
}

}  // namespace perfbench

// --- Counting global allocation functions ---------------------------------

void* operator new(std::size_t n) {
  if (void* p = perfbench::counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = perfbench::counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = perfbench::counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = perfbench::counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
