// The Swift dataflow engine (paper §4.1, §5.2).
//
// Swift programs are sets of app() statements that "are all executed
// concurrently, limited by data dependencies" (§6.2.2). We reproduce that
// semantics as an embedded C++ DSL: each app() call registers a statement;
// a per-statement actor waits for the statement's input DataVars, submits
// the command through the CoasterService (which handles MPI aggregation
// via the JETS machinery), and closes the output DataVars on completion —
// releasing whatever statements consume them.
//
// Fig 17's REM core loop maps 1:1 onto this API (see apps/rem.cc); Fig 14's
// synthetic loop is the Fig 15 bench.
#pragma once

#include <cstddef>
#include <vector>

#include "core/job.hh"
#include "os/machine.hh"
#include "swift/coasters.hh"
#include "swift/dataflow.hh"

namespace jets::swift {

/// One Swift app() statement.
struct AppCall {
  std::vector<std::string> argv;
  std::vector<DataPtr> inputs;
  std::vector<DataPtr> outputs;

  /// MPI settings packed with the job specification (§5.2 step 1).
  bool mpi = false;
  int nprocs = 1;
  int ppn = 1;

  /// Run on the login node instead of a compute slot — how the paper's
  /// filesystem-bound exchange() avoids delaying ready NAMD segments
  /// (§6.2.2). `login_cost` models the script's (filesystem-dominated)
  /// run time there.
  bool run_on_login = false;
  sim::Duration login_cost = 0;
};

class SwiftEngine {
 public:
  struct Config {
    /// Swift/Karajan dataflow processing + wrapper-script cost per app.
    sim::Duration submit_overhead = sim::milliseconds(20);
  };

  SwiftEngine(os::Machine& machine, CoasterService& coasters, Config config);
  SwiftEngine(os::Machine& machine, CoasterService& coasters);

  /// Registers a statement; it fires when all inputs are set.
  void app(AppCall call);

  /// Convenience for building file futures.
  DataPtr file(std::string path, std::uint64_t bytes = 0) {
    return make_data(machine_->engine(), std::move(path), bytes);
  }

  /// Completes when every registered statement has finished, or as soon as
  /// any statement fails (Swift aborts the script on app errors).
  sim::Task<void> run_to_completion();

  std::size_t registered() const { return registered_; }
  std::size_t completed() const { return completed_; }
  std::size_t failed() const { return failed_; }
  const std::vector<core::JobRecord>& job_records() const { return records_; }

 private:
  sim::Task<void> statement_actor(AppCall call);
  void note_settled();

  os::Machine* machine_;
  CoasterService* coasters_;
  Config config_;
  std::unique_ptr<sim::Gate> all_done_;
  std::size_t registered_ = 0;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  std::vector<core::JobRecord> records_;
};

}  // namespace jets::swift
