// Simulated machines: compute nodes, login/service nodes, the interconnect,
// the shared parallel filesystem, and a process table.
//
// Three presets reproduce the paper's testbeds (§6):
//  * Surveyor   — IBM Blue Gene/P: 4 cores/node @ 850 MHz, ZeptoOS with
//                 IP-over-torus (TCP) messaging, RAM-disk local storage,
//                 slow process startup, PVFS/GPFS shared storage.
//  * Breadboard — x86 commodity cluster, GigE, fast fork/exec.
//  * Eureka     — 100-node x86 cluster, 2x quad-core Xeon E5405 (8 cores,
//                 32 GB) per node, GPFS (§6.2.1).
//
// Calibration constants carry comments tying them back to the paper's
// reported magnitudes; absolute values are tuned so the benchmark harnesses
// land in the paper's regimes (e.g. ~7,000 seq. launches/s on a full rack).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/fabric.hh"
#include "net/socket.hh"
#include "os/cas.hh"
#include "os/filesystem.hh"
#include "sim/engine.hh"
#include "sim/random.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace jets::obs {
class Tracer;
}

namespace jets::os {

using net::NodeId;

/// Per-node hardware/OS parameters.
struct NodeSpec {
  unsigned cores = 4;
  /// fork+exec of an already-resident binary (excludes binary I/O).
  sim::Duration fork_exec = sim::milliseconds(10);
  /// Node-local storage (ZeptoOS ramdisk / local scratch).
  sim::Duration local_fs_latency = sim::microseconds(20);
  double local_fs_bps = 1.5e9;
  /// Capacity of the node's content-addressed staging cache (os/cas.hh);
  /// 0 = unbounded. Bounds resident staged-blob bytes with LRU eviction —
  /// the ramdisk is a slice of node RAM, not a disk.
  std::uint64_t cas_capacity = 0;
};

struct MachineSpec {
  std::string name;
  std::size_t compute_nodes = 0;
  NodeSpec node;
  std::shared_ptr<const net::Fabric> fabric;
  /// Shared parallel filesystem (GPFS/PVFS) behaviour.
  sim::Duration shared_fs_latency = sim::milliseconds(4);
  double shared_fs_bps = 2.0e9;
};

/// One compute (or login) node.
class Node {
 public:
  Node(sim::Engine& engine, NodeId id, const NodeSpec& spec)
      : id_(id), spec_(spec),
        local_fs_(spec.local_fs_latency, spec.local_fs_bps),
        cas_(local_fs_, spec.cas_capacity),
        cores_(engine, spec.cores) {}

  NodeId id() const { return id_; }
  const NodeSpec& spec() const { return spec_; }
  LocalFs& local_fs() { return local_fs_; }
  /// Content-addressed staging cache over local_fs() (see os/cas.hh).
  /// Shared by every worker on the node, like the ramdisk it models.
  CasStore& cas() { return cas_; }
  sim::Semaphore& cores() { return cores_; }

  /// Page-cache model for program images: a binary exec'd from *local*
  /// storage stays resident, so repeat execs skip the image read. Images
  /// on the shared filesystem are re-read every exec (compute nodes mount
  /// GPFS/PVFS without a coherent local cache — why the paper stages
  /// binaries to the ramdisk and "suppresses lookups to GPFS", §6.1.4).
  bool binary_resident(const std::string& path) const {
    return resident_binaries_.contains(path);
  }
  void mark_binary_resident(const std::string& path) {
    resident_binaries_.insert(path);
  }

  /// Slow-node fault model (chaos class 4): multipliers applied to this
  /// node's fork/exec cost and to model compute time (see
  /// Machine::scale_compute). 1.0 = healthy; >1 = degraded (thermal
  /// throttling, a sick DIMM, a noisy neighbour on shared hardware).
  double exec_scale() const noexcept { return exec_scale_; }
  double compute_scale() const noexcept { return compute_scale_; }
  void set_slowdown(double exec_scale, double compute_scale) {
    exec_scale_ = exec_scale;
    compute_scale_ = compute_scale;
  }

 private:
  NodeId id_;
  NodeSpec spec_;
  LocalFs local_fs_;
  CasStore cas_;
  sim::Semaphore cores_;
  std::set<std::string> resident_binaries_;
  double exec_scale_ = 1.0;
  double compute_scale_ = 1.0;
};

/// Options for launching a simulated process.
///
/// The constructors are user-provided ON PURPOSE, as every rpc verb's are
/// (see the GCC 12 note in net/rpc.hh): exec() defaults this argument, and
/// GCC 12 gives an *aggregate* prvalue that lives across a co_await in the
/// same full-expression a bitwise duplicate, whose destruction frees the
/// original's inline string buffer. `co_await m.wait(m.exec(...))` is safe
/// only while ExecOptions is not an aggregate.
struct ExecOptions {
  ExecOptions() = default;
  explicit ExecOptions(std::string program) : binary(std::move(program)) {}

  /// If non-empty, the named program binary is loaded before the body runs:
  /// from node-local storage when staged there, otherwise from the shared
  /// filesystem (the staging-ablation lever, §6.1.4).
  std::string binary;
  /// Extra fixed startup cost (e.g. interpreter/wrapper-script overhead).
  sim::Duration extra_startup = 0;
  /// Charge the node's fork/exec cost (disable for pure logic actors).
  bool charge_fork = true;
};

class Machine {
 public:
  /// A process is one engine actor, and its pid is that actor's id.
  using Pid = sim::ActorId;

  Machine(sim::Engine& engine, MachineSpec spec);

  /// Tears down all engine actors while this machine's network and
  /// filesystems are still alive — simulated-process frames hold sockets
  /// whose destructors call back into the machine.
  ~Machine();

  // --- Presets (constants documented in machine.cc) ---------------------
  static MachineSpec surveyor(std::size_t nodes);    // IBM Blue Gene/P
  static MachineSpec breadboard(std::size_t nodes);  // x86 cluster, GigE
  static MachineSpec eureka(std::size_t nodes);      // x86 cluster, 8 cores

  sim::Engine& engine() { return *engine_; }
  const MachineSpec& spec() const { return spec_; }
  std::size_t compute_node_count() const { return spec_.compute_nodes; }

  /// Compute nodes are ids [0, compute_nodes); the login node hosts the
  /// central services (JETS dispatcher, CoasterService, mpiexec).
  NodeId login_node() const {
    return static_cast<NodeId>(spec_.compute_nodes);
  }
  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }

  /// Degrades `node`: fork/exec (and wrapper startup) costs are multiplied
  /// by `exec_scale`, and durations passed through scale_compute by
  /// `compute_scale`. Pass 1.0/1.0 to heal the node.
  void set_node_slowdown(NodeId node, double exec_scale,
                         double compute_scale) {
    this->node(node).set_slowdown(exec_scale, compute_scale);
  }

  /// Applies `node`'s compute multiplier to a model duration. Application
  /// models (apps/synthetic, apps/namd) route their compute delays through
  /// this so a chaos-degraded node visibly stretches task wall times.
  sim::Duration scale_compute(NodeId node, sim::Duration d) const {
    const double scale = this->node(node).compute_scale();
    if (scale == 1.0) return d;
    return static_cast<sim::Duration>(static_cast<double>(d) * scale + 0.5);
  }

  net::Network& network() { return network_; }
  SharedFs& shared_fs() { return shared_fs_; }

  /// Observability hook: the span tracer every JETS component on this
  /// machine reports to, or nullptr (the default — tracing off, no cost
  /// beyond this pointer load). Attach before starting the workload and
  /// keep the tracer alive for the machine's lifetime; recording never
  /// schedules events, so attaching cannot perturb the simulation.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Hands out machine-unique ports for dynamically bound services
  /// (mpiexec control ports, MPI rank endpoints).
  net::Port allocate_port() { return next_port_++; }

  // --- Process management ------------------------------------------------

  /// Forks a process on `node` running `body`. Startup cost (fork/exec +
  /// binary load per `opts`) is charged before the body starts. Returns
  /// immediately with the pid. If called from within another simulated
  /// process, the new process becomes its child (kill takes the subtree)
  /// until it ends.
  Pid exec(NodeId node, std::string name, sim::Task<void> body,
           ExecOptions opts = {});

  /// SIGKILL to the whole process tree rooted at `pid`: children first,
  /// then the process itself; coroutine teardown closes their sockets.
  /// Every killed process leaves the table at once.
  bool kill(Pid pid);

  bool alive(Pid pid) const { return find(pid) != nullptr; }
  /// Processes started and not yet ended or killed.
  std::size_t process_count() const { return live_; }

  /// `co_await wait(pid)`: completion of a process (like waitpid).
  sim::JoinAwaiter wait(Pid pid) { return engine_->join(pid); }

  /// The simulated I/O time to load `binary` on `node`: node-local if
  /// staged there, shared-fs otherwise. Exposed for tests and models.
  sim::Task<void> load_binary(NodeId node, const std::string& binary);

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// A process table row. Rows are indexed by the process actor's engine
  /// slot, so finding a pid or the running process needs no map of its
  /// own; a row holds a process iff its pid is that actor's live id. The
  /// tree is intrusive: each row links its first and last child and its
  /// siblings by row index.
  struct Process {
    Pid pid = 0;  // 0: no process
    std::uint32_t parent = kNone;
    std::uint32_t first_child = kNone;
    std::uint32_t last_child = kNone;
    std::uint32_t prev_sibling = kNone;
    std::uint32_t next_sibling = kNone;
  };

  /// Lives in a process's run_process frame and gives its row back when
  /// the frame goes: at the process's end, or when it is killed.
  class RowRelease {
   public:
    RowRelease(Machine* machine, const sim::ActorContext& self)
        : machine_(machine), row_(self.slot), pid_(self.id) {}
    RowRelease(const RowRelease&) = delete;
    RowRelease& operator=(const RowRelease&) = delete;
    ~RowRelease() { machine_->release(row_, pid_); }

   private:
    Machine* machine_;
    std::uint32_t row_;
    Pid pid_;
  };

  sim::Task<void> run_process(NodeId node, sim::Task<void> body,
                              ExecOptions opts);
  const Process* find(Pid pid) const;
  /// Frees row `row` if it still holds `pid`: unlinks it from its parent,
  /// and its live children become orphans.
  void release(std::uint32_t row, Pid pid);
  /// Kills the tree rooted at row `row`, children first.
  void kill_tree(std::uint32_t row);

  sim::Engine* engine_;
  MachineSpec spec_;
  net::Network network_;
  SharedFs shared_fs_;
  std::vector<std::unique_ptr<Node>> nodes_;
  obs::Tracer* tracer_ = nullptr;
  net::Port next_port_ = 10000;
  std::vector<Process> procs_;
  std::size_t live_ = 0;
};

/// Typed failure taxonomy for allocation requests. Distinct from the
/// std::invalid_argument thrown for caller bugs (below-minimum / oversize
/// requests): an AllocationError is a *site* outcome a resilient allocator
/// is expected to retry or route around.
class AllocationError : public std::runtime_error {
 public:
  enum class Kind {
    kDenied,           // batch system refused the request (policy/chaos)
    kOutOfNodes,       // machine has no contiguous free capacity left
    kQueueStarvation,  // request sat in the queue past submit_timeout
  };

  AllocationError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

const char* to_string(AllocationError::Kind kind);

/// Cobalt/PBS-like batch scheduler: an allocation request waits in the
/// queue (longer for bigger requests), boots ("allocations may take on the
/// order of minutes to boot", §1), then exposes its node list until the
/// walltime expires. This is step (1) of the paper's Fig 1 model and the
/// substrate for the spectrum-allocator extension (§7).
///
/// Every grant carries a unique allocation id; release/walltime/preempt all
/// key off the id, so a stale Allocation copy (already released, nodes
/// re-granted) is a harmless no-op instead of freeing nodes out from under
/// a later allocation.
class BatchScheduler {
 public:
  struct Policy {
    sim::Duration boot_time = sim::seconds(90);
    sim::Duration base_queue_wait = sim::seconds(30);
    /// Additional expected queue wait per requested node (exponentially
    /// distributed jitter around the mean).
    sim::Duration wait_per_node = sim::milliseconds(500);
    std::size_t min_nodes = 1;  // site policy, e.g. 512 on Intrepid (§3)
    /// Queue-starvation deadline: a request that would not clear the queue
    /// within this window fails with AllocationError::kQueueStarvation
    /// instead of waiting forever. 0 = wait indefinitely.
    sim::Duration submit_timeout = 0;
  };

  struct Allocation {
    /// Unique grant id (0 = never granted). Stale copies are detected by
    /// id lookup, never by node list.
    std::uint64_t id = 0;
    std::vector<NodeId> nodes;
    sim::Time started_at = 0;
    sim::Time expires_at = 0;
  };

  BatchScheduler(Machine& machine, Policy policy, sim::Rng rng)
      : machine_(&machine), policy_(policy), rng_(rng) {}
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Waits (queue + boot) and returns an allocation of `nodes` free nodes.
  /// Throws std::invalid_argument if the request violates site policy or
  /// exceeds the machine; AllocationError for site outcomes (denied,
  /// out of nodes, queue starvation).
  sim::Task<Allocation> submit(std::size_t nodes, sim::Duration walltime);

  /// Returns an allocation's nodes to the free pool and cancels its
  /// walltime timer. Idempotent by id: releasing twice, or releasing a
  /// stale copy whose id is no longer live, is a no-op.
  void release(const Allocation& alloc);

  /// Arms the allocation's walltime: at expires_at every pid in `pilots`
  /// is killed (taking its task subtree) and the nodes are released —
  /// what Cobalt does to pilot jobs when "the allocation expires" (§1).
  /// A no-op if the allocation was already released; release() before
  /// expiry disarms the timer.
  void enforce_walltime(const Allocation& alloc,
                        std::vector<Machine::Pid> pilots);

  /// Revokes a live allocation ahead of its walltime (backfill preemption,
  /// reservation reclaim). Fires the preempt handler first — giving the
  /// service a chance to drain/requeue synchronously — then kills the
  /// registered pilots and releases the nodes. Returns false if the id is
  /// not live.
  bool preempt(std::uint64_t id);

  /// Called at the start of preempt(), before any pilot is killed.
  void set_preempt_handler(std::function<void(const Allocation&)> fn) {
    on_preempt_ = std::move(fn);
  }

  /// Chaos hooks: the next `n` submits are denied at grant time; requests
  /// in (or entering) the queue stall until now + `window`.
  void inject_denials(std::size_t n) { injected_denials_ += n; }
  void inject_stall(sim::Duration window);

  std::size_t free_nodes() const;
  /// Live (granted, unreleased) allocation ids in grant order.
  std::vector<std::uint64_t> live_ids() const;
  const Allocation* live_allocation(std::uint64_t id) const;

 private:
  struct Live {
    Allocation alloc;
    std::vector<Machine::Pid> pilots;
    sim::TimerHandle walltime_timer;
  };

  void expire(std::uint64_t id);

  Machine* machine_;
  Policy policy_;
  sim::Rng rng_;
  std::vector<bool> busy_;  // lazily sized to compute_nodes
  std::uint64_t next_alloc_id_ = 1;
  std::map<std::uint64_t, Live> live_;
  std::size_t injected_denials_ = 0;
  sim::Time stall_until_ = -1;
  std::function<void(const Allocation&)> on_preempt_;
};

}  // namespace jets::os
