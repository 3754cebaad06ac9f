// The benchmark's four workloads. Each runs one closed batch (or one
// workflow) on the modelled clock through the public APIs, and reports one
// pass as named raw values; run.py turns passes into metrics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct PassOptions {
  std::string workload;    // seq_flood | mpi_gang | swift_rem | recover_staged
  std::uint64_t seed = 1;  // drives REM durations, chaos targets, jitter
  bool small = false;      // reduced sizes, for the self-test
  bool traced = false;     // per-layer attribution + span tracer
};

/// One pass: raw values by name, in insertion order, plus the folded
/// record digest.
struct Report {
  std::vector<std::pair<std::string, double>> values;
  std::uint64_t digest = 0;

  void set(std::string name, double v) { values.emplace_back(std::move(name), v); }
  /// Adds to an existing value (or creates it).
  void add(const std::string& name, double v);
  void max(const std::string& name, double v);
};

/// Runs one pass of `opts.workload`; throws std::invalid_argument for an
/// unknown workload name.
Report run_pass(const PassOptions& opts);

}  // namespace perfbench
