#include "os/machine.hh"

#include <stdexcept>

#include "net/rpc.hh"
#include "os/program.hh"

namespace jets::os {

Machine::Machine(sim::Engine& engine, MachineSpec spec)
    : engine_(&engine), spec_(std::move(spec)),
      network_(engine, spec_.fabric),
      shared_fs_(engine, spec_.shared_fs_latency, spec_.shared_fs_bps) {
  if (!spec_.fabric) throw std::invalid_argument("MachineSpec needs a fabric");
  nodes_.reserve(spec_.compute_nodes + 1);
  for (std::size_t i = 0; i <= spec_.compute_nodes; ++i) {
    // The last entry is the login/service node; same NodeSpec, which is fine
    // because service processes are modelled by explicit handler costs.
    nodes_.push_back(std::make_unique<Node>(
        engine, static_cast<NodeId>(i), spec_.node));
  }
}

Machine::~Machine() { engine_->shutdown(); }

// --- Presets -----------------------------------------------------------------
//
// Surveyor (BG/P, §6.1.1/6.1.4): 4 cores/node @ 850 MHz. Process startup
// under ZeptoOS is slow: fork/exec of a staged binary plus the JETS wrapper
// scripting comes to several hundred ms; we charge 80 ms fork/exec here and
// let the JETS worker add its script overhead (see core/worker). The
// IP-over-torus TCP stack gives the high small-message latency seen in
// Fig 8. Shared storage is PVFS/GPFS over the I/O nodes: a few ms per
// metadata op, a few GB/s aggregate.
MachineSpec Machine::surveyor(std::size_t nodes) {
  MachineSpec s;
  s.name = "surveyor-bgp";
  s.compute_nodes = nodes;
  s.node.cores = 4;
  s.node.fork_exec = sim::milliseconds(80);
  s.node.local_fs_latency = sim::microseconds(50);
  s.node.local_fs_bps = 800e6;  // ramdisk on an 850 MHz PPC450
  // One rack is 8x8x16; smaller allocations still use the same geometry.
  s.fabric = std::make_shared<net::TorusTcpFabric>(net::TorusShape{8, 8, 16});
  s.shared_fs_latency = sim::milliseconds(6);
  s.shared_fs_bps = 3.0e9;
  return s;
}

// Breadboard (x86 test cluster, §6.1.2): fast commodity nodes, GigE.
MachineSpec Machine::breadboard(std::size_t nodes) {
  MachineSpec s;
  s.name = "breadboard-x86";
  s.compute_nodes = nodes;
  s.node.cores = 8;
  s.node.fork_exec = sim::milliseconds(4);
  s.node.local_fs_latency = sim::microseconds(15);
  s.node.local_fs_bps = 2.5e9;
  s.fabric = std::make_shared<net::EthernetFabric>();
  s.shared_fs_latency = sim::milliseconds(3);
  s.shared_fs_bps = 1.5e9;
  return s;
}

// Eureka (§6.2.1): 100 nodes, 2x quad-core Xeon E5405 @ 2 GHz, 32 GB,
// GPFS. Same order of magnitude as Breadboard but with GPFS contention
// mattering for the Swift workloads.
MachineSpec Machine::eureka(std::size_t nodes) {
  MachineSpec s;
  s.name = "eureka-x86";
  s.compute_nodes = nodes;
  s.node.cores = 8;
  s.node.fork_exec = sim::milliseconds(5);
  s.node.local_fs_latency = sim::microseconds(15);
  s.node.local_fs_bps = 2.5e9;
  s.fabric = std::make_shared<net::EthernetFabric>(sim::microseconds(70), 125e6);
  s.shared_fs_latency = sim::milliseconds(5);
  s.shared_fs_bps = 2.0e9;
  return s;
}

// --- Process management --------------------------------------------------------

sim::Task<void> Machine::load_binary(NodeId node, const std::string& binary) {
  Node& n = this->node(node);
  if (n.binary_resident(binary)) {
    co_await sim::delay(n.spec().local_fs_latency);  // cache hit
  } else if (n.local_fs().exists(binary)) {
    co_await n.local_fs().read(binary);
    n.mark_binary_resident(binary);
  } else {
    // Shared-filesystem images are re-read on every exec (no coherent
    // client cache on the compute nodes).
    co_await shared_fs_.read(binary);
  }
}

sim::Task<void> Machine::run_process(NodeId node, sim::Task<void> body,
                                     ExecOptions opts) {
  // Does not suspend. A process killed before this first step never has
  // the guard, but kill() has given its row back already.
  const RowRelease row(this, *co_await sim::current_context());
  const NodeSpec& spec = this->node(node).spec();
  // A chaos-degraded node pays its exec multiplier on fork and wrapper
  // startup; the scale is sampled per charge, so healing mid-run takes
  // effect on the next exec.
  auto exec_cost = [this, node](sim::Duration d) {
    const double scale = this->node(node).exec_scale();
    if (scale == 1.0) return d;
    return static_cast<sim::Duration>(static_cast<double>(d) * scale + 0.5);
  };
  if (opts.charge_fork) co_await sim::delay(exec_cost(spec.fork_exec));
  if (opts.extra_startup > 0) co_await sim::delay(exec_cost(opts.extra_startup));
  if (!opts.binary.empty()) co_await load_binary(node, opts.binary);
  co_await std::move(body);
}

Machine::Pid Machine::exec(NodeId node, std::string name, sim::Task<void> body,
                           ExecOptions opts) {
  // fork semantics: if exec() was called from inside another simulated
  // process, the new process joins its tree (kill takes the whole subtree).
  const Process* parent = find(engine_->running_actor());
  const std::uint32_t parent_row =
      parent ? static_cast<std::uint32_t>(parent - procs_.data()) : kNone;
  const Pid pid = engine_->spawn(
      std::move(name), run_process(node, std::move(body), std::move(opts)));
  const std::uint32_t row = *engine_->actor_slot(pid);
  if (row >= procs_.size()) procs_.resize(row + 1);
  // A row still set here lost its actor to an engine-level kill before the
  // process took its first step (so before its guard existed).
  release(row, procs_[row].pid);
  Process& p = procs_[row];
  p.pid = pid;
  if (parent_row != kNone) {
    Process& up = procs_[parent_row];
    p.parent = parent_row;
    p.prev_sibling = up.last_child;
    (up.last_child != kNone ? procs_[up.last_child].next_sibling
                            : up.first_child) = row;
    up.last_child = row;
  }
  ++live_;
  return pid;
}

const Machine::Process* Machine::find(Pid pid) const {
  const std::optional<std::uint32_t> row = engine_->actor_slot(pid);
  if (!row || *row >= procs_.size() || procs_[*row].pid != pid) return nullptr;
  return &procs_[*row];
}

void Machine::release(std::uint32_t row, Pid pid) {
  if (row >= procs_.size() || pid == 0 || procs_[row].pid != pid) return;
  Process& p = procs_[row];
  if (p.parent != kNone) {
    Process& up = procs_[p.parent];
    (p.prev_sibling != kNone ? procs_[p.prev_sibling].next_sibling
                             : up.first_child) = p.next_sibling;
    (p.next_sibling != kNone ? procs_[p.next_sibling].prev_sibling
                             : up.last_child) = p.prev_sibling;
  }
  for (std::uint32_t c = p.first_child; c != kNone;) {
    Process& child = procs_[c];
    c = child.next_sibling;
    child.parent = child.prev_sibling = child.next_sibling = kNone;
  }
  p = Process{};
  --live_;
}

void Machine::kill_tree(std::uint32_t row) {
  // Take down the subtree first (ZeptoOS-like: the pilot script's children
  // die with it), oldest child first. Each kill unlinks its child.
  while (procs_[row].first_child != kNone) kill_tree(procs_[row].first_child);
  const Pid pid = procs_[row].pid;
  release(row, pid);
  engine_->kill(pid);
}

bool Machine::kill(Pid pid) {
  const Process* p = find(pid);
  if (!p) return false;
  kill_tree(static_cast<std::uint32_t>(p - procs_.data()));
  return true;
}

// --- BatchScheduler --------------------------------------------------------------

const char* to_string(AllocationError::Kind kind) {
  switch (kind) {
    case AllocationError::Kind::kDenied: return "denied";
    case AllocationError::Kind::kOutOfNodes: return "out-of-nodes";
    case AllocationError::Kind::kQueueStarvation: return "queue-starvation";
  }
  return "?";
}

BatchScheduler::~BatchScheduler() {
  for (auto& [id, live] : live_) live.walltime_timer.cancel();
}

sim::Task<BatchScheduler::Allocation> BatchScheduler::submit(
    std::size_t nodes, sim::Duration walltime) {
  if (nodes < policy_.min_nodes) {
    throw std::invalid_argument("allocation below site minimum node count");
  }
  if (nodes > machine_->compute_node_count()) {
    throw std::invalid_argument("allocation exceeds machine size");
  }
  if (busy_.empty()) busy_.resize(machine_->compute_node_count(), false);
  if (injected_denials_ > 0) {
    --injected_denials_;
    throw AllocationError(AllocationError::Kind::kDenied,
                          "allocation denied by site policy");
  }

  // Queue wait grows with request size (crude model of backfill pressure).
  const sim::Duration mean_wait =
      policy_.base_queue_wait +
      policy_.wait_per_node * static_cast<sim::Duration>(nodes);
  sim::Duration wait = rng_.exponential_duration(mean_wait);
  const sim::Time entered = machine_->engine().now();
  // A stalled queue holds every pending request until the stall clears.
  if (stall_until_ > entered + wait) wait = stall_until_ - entered;
  if (policy_.submit_timeout > 0 && wait > policy_.submit_timeout) {
    co_await sim::delay(policy_.submit_timeout);
    throw AllocationError(AllocationError::Kind::kQueueStarvation,
                          "allocation request starved in the batch queue");
  }
  co_await sim::delay(wait);
  co_await sim::delay(policy_.boot_time);

  Allocation alloc;
  alloc.nodes.reserve(nodes);
  for (std::size_t i = 0; i < busy_.size() && alloc.nodes.size() < nodes; ++i) {
    if (!busy_[i]) {
      busy_[i] = true;
      alloc.nodes.push_back(static_cast<NodeId>(i));
    }
  }
  if (alloc.nodes.size() < nodes) {
    for (NodeId id : alloc.nodes) busy_[id] = false;
    throw AllocationError(AllocationError::Kind::kOutOfNodes,
                          "machine out of free nodes");
  }
  alloc.id = next_alloc_id_++;
  alloc.started_at = machine_->engine().now();
  alloc.expires_at = alloc.started_at + walltime;
  live_.emplace(alloc.id, Live{alloc, {}, {}});
  co_return alloc;
}

void BatchScheduler::release(const Allocation& alloc) {
  auto it = live_.find(alloc.id);
  if (it == live_.end()) return;  // stale copy or double release: no-op
  it->second.walltime_timer.cancel();
  for (NodeId id : it->second.alloc.nodes) busy_.at(id) = false;
  live_.erase(it);
}

void BatchScheduler::enforce_walltime(const Allocation& alloc,
                                      std::vector<Machine::Pid> pilots) {
  auto it = live_.find(alloc.id);
  if (it == live_.end()) return;  // already released: nothing to enforce
  it->second.pilots = std::move(pilots);
  it->second.walltime_timer.cancel();
  const std::uint64_t id = alloc.id;
  it->second.walltime_timer =
      machine_->engine().call_at(it->second.alloc.expires_at,
                                 [this, id] { expire(id); });
}

void BatchScheduler::expire(std::uint64_t id) {
  auto it = live_.find(id);
  if (it == live_.end()) return;
  for (Machine::Pid pid : it->second.pilots) machine_->kill(pid);
  for (NodeId n : it->second.alloc.nodes) busy_.at(n) = false;
  live_.erase(it);
}

bool BatchScheduler::preempt(std::uint64_t id) {
  auto it = live_.find(id);
  if (it == live_.end()) return false;
  const Allocation alloc = it->second.alloc;
  // Handler runs before any pilot dies so the service can drain/requeue
  // the allocation's jobs synchronously — nothing is lost to the kill.
  if (on_preempt_) on_preempt_(alloc);
  it = live_.find(id);  // the handler may have released it already
  if (it == live_.end()) return true;
  it->second.walltime_timer.cancel();
  for (Machine::Pid pid : it->second.pilots) machine_->kill(pid);
  for (NodeId n : it->second.alloc.nodes) busy_.at(n) = false;
  live_.erase(it);
  return true;
}

void BatchScheduler::inject_stall(sim::Duration window) {
  const sim::Time until = machine_->engine().now() + window;
  if (until > stall_until_) stall_until_ = until;
}

std::vector<std::uint64_t> BatchScheduler::live_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(live_.size());
  for (const auto& [id, live] : live_) ids.push_back(id);
  return ids;
}

const BatchScheduler::Allocation* BatchScheduler::live_allocation(
    std::uint64_t id) const {
  auto it = live_.find(id);
  return it == live_.end() ? nullptr : &it->second.alloc;
}

std::size_t BatchScheduler::free_nodes() const {
  if (busy_.empty()) return machine_->compute_node_count();
  std::size_t n = 0;
  for (bool b : busy_) n += b ? 0 : 1;
  return n;
}

void Env::write_stdout(std::size_t bytes) const {
  if (stdout_sink) net::rpc::post(*stdout_sink, net::rpc::StdoutNote{bytes});
}

}  // namespace jets::os
