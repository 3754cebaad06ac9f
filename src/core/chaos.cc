#include "core/chaos.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace jets::core {

/// Every ChaosCounters field and the "jets.chaos.*" counter it mirrors to;
/// attach_metrics() and bump() both walk this one list.
constexpr std::pair<std::size_t ChaosCounters::*, const char*> kMirrors[] = {
    {&ChaosCounters::pilots_killed, "jets.chaos.pilots_killed"},
    {&ChaosCounters::connections_reset, "jets.chaos.connections_reset"},
    {&ChaosCounters::nodes_stalled, "jets.chaos.nodes_stalled"},
    {&ChaosCounters::workers_hung, "jets.chaos.workers_hung"},
    {&ChaosCounters::workers_released, "jets.chaos.workers_released"},
    {&ChaosCounters::nodes_degraded, "jets.chaos.nodes_degraded"},
    {&ChaosCounters::services_crashed, "jets.chaos.services_crashed"},
    {&ChaosCounters::services_restored, "jets.chaos.services_restored"},
    {&ChaosCounters::allocations_denied, "jets.chaos.allocations_denied"},
    {&ChaosCounters::allocations_stalled, "jets.chaos.allocations_stalled"},
    {&ChaosCounters::allocations_preempted, "jets.chaos.allocations_preempted"},
};

void ChaosEngine::attach_metrics(obs::MetricsRegistry& registry) {
  if (metrics_ == &registry) return;  // idempotent re-attach
  // Switching registries (a restored Service re-binding a fresh one): seed
  // the new registry with the counts accumulated so far, so mirrored
  // counters never run behind counters_.
  metrics_ = &registry;
  for (const auto& [member, name] : kMirrors) {
    obs::Counter& c = metrics_->counter(name);
    const std::size_t v = counters_.*member;
    if (c.value < v) c.inc(v - c.value);
  }
}

void ChaosEngine::bump(std::size_t ChaosCounters::* member, std::size_t d) {
  counters_.*member += d;
  if (!metrics_ || d == 0) return;
  // Fault firing is cold path; a name lookup per bump is fine.
  for (const auto& [m, name] : kMirrors) {
    if (m == member) metrics_->counter(name).inc(d);
  }
}

void ChaosEngine::add_periodic(FaultKind kind, sim::Time first_at,
                               sim::Duration interval, std::size_t count,
                               sim::Duration duration) {
  for (std::size_t k = 0; k < count; ++k) {
    Fault f;
    f.at = first_at + static_cast<sim::Duration>(k) * interval;
    f.kind = kind;
    f.duration = duration;
    plan_.push_back(f);
  }
}

void ChaosEngine::start() {
  if (started_) throw std::logic_error("ChaosEngine::start called twice");
  started_ = true;
  if (nodes_.empty()) {
    nodes_.reserve(machine_->compute_node_count());
    for (std::size_t i = 0; i < machine_->compute_node_count(); ++i) {
      nodes_.push_back(static_cast<os::NodeId>(i));
    }
  }
  // Arm in plan order: equal-time faults fire FIFO in the order they were
  // added, which keeps the rng draw sequence (and thus the run) stable.
  // Fault times already behind the clock (start() is usually called after
  // the harness waited for workers) fire immediately.
  for (const Fault& f : plan_) {
    machine_->engine().call_at(std::max(f.at, machine_->engine().now()),
                               [this, f] { fire(f); });
  }
}

os::NodeId ChaosEngine::pick_node(const Fault& f) {
  if (f.node != kRandomTarget) return f.node;
  if (nodes_.empty()) throw std::logic_error("chaos: no target nodes");
  const auto idx = static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(nodes_.size()) - 1));
  return nodes_[idx];
}

void ChaosEngine::fire(const Fault& f) {
  switch (f.kind) {
    case FaultKind::kKillPilot: {
      if (pilots_.empty()) return;
      const auto idx = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(pilots_.size()) - 1));
      machine_->kill(pilots_[idx]);
      pilots_.erase(pilots_.begin() + static_cast<std::ptrdiff_t>(idx));
      bump(&ChaosCounters::pilots_killed);
      break;
    }
    case FaultKind::kSocketClose: {
      bump(&ChaosCounters::connections_reset,
           machine_->network().reset_node(pick_node(f)));
      break;
    }
    case FaultKind::kSocketStall: {
      machine_->network().stall_node(pick_node(f), f.duration);
      bump(&ChaosCounters::nodes_stalled);
      break;
    }
    case FaultKind::kHangWorker: {
      if (!registry_) return;
      // Target: the first not-yet-hung control on the requested node, or a
      // random not-yet-hung one. Registration order is the deterministic
      // worker start order, so "first" is stable.
      std::vector<std::shared_ptr<WorkerHangControl>> eligible;
      for (const auto& ctl : registry_->controls) {
        if (ctl->hung()) continue;
        if (f.node != kRandomTarget && ctl->node() != f.node) continue;
        eligible.push_back(ctl);
      }
      if (eligible.empty()) return;
      std::shared_ptr<WorkerHangControl> victim;
      if (f.node != kRandomTarget) {
        victim = eligible.front();
      } else {
        const auto idx = static_cast<std::size_t>(rng_.uniform_int(
            0, static_cast<std::int64_t>(eligible.size()) - 1));
        victim = eligible[idx];
      }
      victim->hang();
      bump(&ChaosCounters::workers_hung);
      if (f.duration > 0) {
        machine_->engine().call_in(f.duration, [this, victim] {
          if (!victim->hung()) return;
          victim->release();
          bump(&ChaosCounters::workers_released);
        });
      }
      break;
    }
    case FaultKind::kServiceCrash: {
      if (!crash_cb_) return;
      crash_cb_();
      bump(&ChaosCounters::services_crashed);
      if (restore_cb_) {
        machine_->engine().call_in(f.duration, [this] {
          restore_cb_();
          bump(&ChaosCounters::services_restored);
        });
      }
      break;
    }
    case FaultKind::kAllocationDeny: {
      if (!batch_sched_) return;
      batch_sched_->inject_denials(1);
      bump(&ChaosCounters::allocations_denied);
      break;
    }
    case FaultKind::kAllocationStall: {
      if (!batch_sched_) return;
      batch_sched_->inject_stall(f.duration);
      bump(&ChaosCounters::allocations_stalled);
      break;
    }
    case FaultKind::kPreemption: {
      if (!batch_sched_) return;
      const std::vector<std::uint64_t> ids = batch_sched_->live_ids();
      if (ids.empty()) return;
      const auto idx = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(ids.size()) - 1));
      if (batch_sched_->preempt(ids[idx])) {
        bump(&ChaosCounters::allocations_preempted);
      }
      break;
    }
    case FaultKind::kSlowNode: {
      const os::NodeId node = pick_node(f);
      machine_->set_node_slowdown(node, f.exec_scale, f.compute_scale);
      bump(&ChaosCounters::nodes_degraded);
      if (f.duration > 0) {
        machine_->engine().call_in(f.duration, [this, node] {
          machine_->set_node_slowdown(node, 1.0, 1.0);
        });
      }
      break;
    }
  }
}

}  // namespace jets::core
