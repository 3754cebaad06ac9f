// The Swift dataflow engine (paper §4.1, §5.2).
//
// Swift programs are sets of app() statements that "are all executed
// concurrently, limited by data dependencies" (§6.2.2). We reproduce that
// semantics as an embedded C++ DSL: each app() call registers a statement
// as a passive record that parks on its unset input DataVars. Once every
// input is set, the statement gets an actor, which submits the command
// through the CoasterService (which handles MPI aggregation via the JETS
// machinery) and closes the output DataVars on completion — releasing
// whatever statements consume them. DESIGN.md §16 has the lifecycle.
//
// Fig 17's REM core loop maps 1:1 onto this API (see apps/rem.cc); Fig 14's
// synthetic loop is the Fig 15 bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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

namespace detail {

/// A registered statement: its AppCall, the inputs walked so far, and
/// either its queued activation, its place in the FIFO of the input it
/// waits for, or the actor that runs it once every input is set. Until it
/// starts it holds no coroutine frame and no actor. Records live in their
/// engine's statement table, whose chunks never move, so a DataVar can link
/// them and a started statement's actor can use its call.
struct Statement {
  Statement() = default;
  Statement(const Statement&) = delete;  // variables and events point here
  Statement& operator=(const Statement&) = delete;

  enum class State : std::uint8_t {
    kQueued,   // its activation is pending
    kParked,   // linked into the FIFO of call.inputs[next_input]
    kStarted,  // `actor` runs the call
    kFree,     // finished, or never used
  };
  AppCall call;
  SwiftEngine* owner = nullptr;
  /// Inputs before this index are set.
  std::uint32_t next_input = 0;
  State state = State::kFree;
  Statement* prev = nullptr;
  /// The FIFO's next record; a free record's next free one.
  Statement* next = nullptr;
  /// A started statement's activation is spent, so its actor's id takes
  /// the handle's place and the record does not grow.
  union {
    sim::TimerHandle activation{};  // kQueued
    sim::ActorId actor;             // kStarted
  };
};

}  // namespace detail

class SwiftEngine {
 public:
  struct Config {
    /// Swift/Karajan dataflow processing + wrapper-script cost per app.
    sim::Duration submit_overhead = sim::milliseconds(20);
  };

  SwiftEngine(os::Machine& machine, CoasterService& coasters, Config config);
  SwiftEngine(os::Machine& machine, CoasterService& coasters);
  /// Unparks the statements that never started, cancels their queued
  /// activations and kills the actors of those that started, so neither
  /// variables nor actors that outlive the engine hold anything of it.
  ~SwiftEngine();
  SwiftEngine(const SwiftEngine&) = delete;
  SwiftEngine& operator=(const SwiftEngine&) = delete;

  /// Registers a statement and queues its first activation now, in the
  /// event slot where a spawn would queue an actor's first resumption. It
  /// starts `submit_overhead` after its last input is set.
  void app(AppCall call);

  /// Convenience for building file futures.
  DataPtr file(std::string path, std::uint64_t bytes = 0) {
    return make_data(std::move(path), bytes);
  }

  /// Completes when every registered statement has finished, or as soon as
  /// any statement fails (Swift aborts the script on app errors).
  sim::Task<void> run_to_completion();

  std::size_t registered() const { return registered_; }
  std::size_t completed() const { return completed_; }
  std::size_t failed() const { return failed_; }
  const std::vector<core::JobRecord>& job_records() const { return records_; }

 private:
  friend class DataVar;

  /// Queues `st`'s activation at the current instant.
  void queue_activation(detail::Statement& st);
  /// Walks `st`'s inputs from where it stopped: parks it on the first
  /// unset one, or starts its actor once all are set.
  void activate(detail::Statement& st);
  /// Runs `st`'s call, then returns its record to the free list.
  sim::Task<void> statement_actor(detail::Statement& st);
  void note_settled();

  /// Records per statement-table chunk.
  static constexpr std::size_t kChunk = 256;

  os::Machine* machine_;
  CoasterService* coasters_;
  Config config_;
  std::unique_ptr<sim::Gate> all_done_;
  /// The statement table: chunks never move; a finished statement's record
  /// goes on the free list for the next app().
  std::vector<std::unique_ptr<detail::Statement[]>> chunks_;
  std::size_t used_ = 0;  // records handed out of chunks_ so far
  detail::Statement* free_ = nullptr;
  std::size_t registered_ = 0;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  std::vector<core::JobRecord> records_;
};

}  // namespace jets::swift
