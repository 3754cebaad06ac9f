// The PMI key-value space held by the process manager (mpiexec).
//
// MPI ranks publish their connection "business cards" here during
// MPI_Init and fetch their peers' cards after a fence. Gets block until
// the key is published (the simulator's equivalent of MPICH's
// fence-then-get discipline), which keeps client code simple and
// deadlock-free for the init pattern used here.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace jets::pmi {

class KeyValueSpace {
 public:
  explicit KeyValueSpace(sim::Engine& engine) : engine_(&engine) {}

  void put(std::string key, std::string value) {
    auto it = gates_.find(key);
    values_.insert_or_assign(std::move(key), std::move(value));
    if (it != gates_.end()) it->second->open();
  }

  bool contains(const std::string& key) const { return values_.contains(key); }

  /// The published value of `key`, or nullptr if nobody published it yet.
  const std::string* find(const std::string& key) const {
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  /// Blocks until `key` is published, then returns its value.
  sim::Task<std::string> get(const std::string& key) {
    if (!values_.contains(key)) {
      auto& gate = gates_[key];
      if (!gate) gate = std::make_unique<sim::Gate>(*engine_);
      co_await gate->wait();
    }
    co_return values_.at(key);
  }

  std::size_t size() const { return values_.size(); }

 private:
  sim::Engine* engine_;
  std::map<std::string, std::string> values_;
  std::map<std::string, std::unique_ptr<sim::Gate>> gates_;
};

}  // namespace jets::pmi
