// Filesystem models: a contended shared parallel filesystem (GPFS / PVFS)
// and fast node-local RAM storage (the ZeptoOS ramdisk JETS stages binaries
// into, §6.1.4).
//
// Files are metadata only — a path and a size; reads and writes charge
// simulated time but move no real bytes. The shared filesystem charges a
// per-operation latency (metadata RPC) plus fair-share bandwidth across all
// concurrent accessors; local storage charges per-node latency/bandwidth
// with no cross-node contention.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "os/fairshare.hh"
#include "sim/engine.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace jets::os {

/// Error for reads of nonexistent paths.
class FileError : public std::runtime_error {
 public:
  explicit FileError(const std::string& what) : std::runtime_error(what) {}
};

/// Abstract file store interface shared by local and parallel filesystems.
class FileStore {
 public:
  virtual ~FileStore() = default;

  /// Reads the whole file at `path`; completes after simulated I/O time.
  /// Throws FileError if missing.
  virtual sim::Task<void> read(const std::string& path) = 0;

  /// Creates/overwrites `path` with `bytes`; completes after I/O time.
  virtual sim::Task<void> write(const std::string& path, std::uint64_t bytes) = 0;

  /// Metadata-only existence/creation (no time charged); for test setup and
  /// staging bookkeeping.
  virtual bool exists(const std::string& path) const = 0;
  virtual void put(const std::string& path, std::uint64_t bytes) = 0;
  virtual std::optional<std::uint64_t> size(const std::string& path) const = 0;
  /// Metadata-only removal (no time charged); absent paths are a no-op.
  /// The CAS layer's LRU eviction drops blobs through this.
  virtual void remove(const std::string&) {}
};

/// Node-local RAM filesystem: fast, uncontended, private to one node.
class LocalFs final : public FileStore {
 public:
  LocalFs(sim::Duration op_latency, double bytes_per_second)
      : latency_(op_latency), bps_(bytes_per_second) {}

  sim::Task<void> read(const std::string& path) override;
  sim::Task<void> write(const std::string& path, std::uint64_t bytes) override;
  bool exists(const std::string& path) const override {
    return files_.contains(path);
  }
  void put(const std::string& path, std::uint64_t bytes) override {
    files_[path] = bytes;
  }
  std::optional<std::uint64_t> size(const std::string& path) const override {
    auto it = files_.find(path);
    if (it == files_.end()) return std::nullopt;
    return it->second;
  }
  void remove(const std::string& path) override { files_.erase(path); }

 private:
  sim::Duration latency_;
  double bps_;
  std::unordered_map<std::string, std::uint64_t> files_;
};

/// Shared parallel filesystem: every operation pays a metadata round trip
/// whose cost grows with the number of concurrent clients (distributed
/// lock/token management — why "simultaneous small-file accesses" hurt,
/// §6.2.2), and data movement shares the servers' aggregate bandwidth
/// fairly across all concurrent accesses machine-wide.
class SharedFs final : public FileStore {
 public:
  SharedFs(sim::Engine& engine, sim::Duration op_latency, double bytes_per_second)
      : latency_(op_latency),
        server_(std::make_unique<FairShareServer>(engine, bytes_per_second)) {}

  sim::Task<void> read(const std::string& path) override;
  sim::Task<void> write(const std::string& path, std::uint64_t bytes) override;
  bool exists(const std::string& path) const override {
    return files_.contains(path);
  }
  void put(const std::string& path, std::uint64_t bytes) override {
    files_[path] = bytes;
  }
  std::optional<std::uint64_t> size(const std::string& path) const override {
    auto it = files_.find(path);
    if (it == files_.end()) return std::nullopt;
    return it->second;
  }

  std::size_t active_transfers() const { return server_->active_transfers(); }

  /// Clients currently inside any read/write/io operation (metadata phase
  /// included). Drives the contention model and the §1.2 client counting.
  std::size_t active_clients() const { return clients_; }

  /// Metadata latency under the current client load:
  /// base x (1 + clients/16).
  sim::Duration loaded_latency() const {
    return latency_ + latency_ * static_cast<sim::Duration>(clients_) / 16;
  }

  /// Charges the time of moving `bytes` through the shared servers in
  /// `ops` operations (metadata latency each), without tracking a path —
  /// how applications model their own input/output traffic.
  sim::Task<void> io(std::uint64_t bytes, unsigned ops = 1);

 private:
  /// RAII client registration; lives in the operation's coroutine frame so
  /// even a killed caller deregisters.
  struct ClientGuard {
    SharedFs* fs;
    explicit ClientGuard(SharedFs* fs) : fs(fs) { ++fs->clients_; }
    ClientGuard(const ClientGuard&) = delete;
    ~ClientGuard() { --fs->clients_; }
  };

  sim::Duration latency_;
  std::unique_ptr<FairShareServer> server_;
  std::unordered_map<std::string, std::uint64_t> files_;
  std::size_t clients_ = 0;
};

}  // namespace jets::os
