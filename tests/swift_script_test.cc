// Tests for the Swift-like script language: lexing/parsing errors, dataflow
// semantics, loops, conditionals (including Swift's %% operator from
// Fig 17), and end-to-end execution through Coasters/JETS.
#include <gtest/gtest.h>

#include "apps/synthetic.hh"
#include "swift/coasters.hh"
#include "swift/engine.hh"
#include "swift/script.hh"
#include "testbed.hh"

namespace jets::swift {
namespace {

struct ScriptBed : test::TestBed {
  CoasterService coasters;
  SwiftEngine swift;
  ScriptRunner runner;

  explicit ScriptBed(std::size_t nodes, int workers_per_node = 1)
      : TestBed(os::Machine::eureka(nodes)),
        coasters(machine, apps, config(workers_per_node)),
        swift(machine, coasters),
        runner(swift) {
    apps::install_synthetic_apps(apps);
    machine.shared_fs().put("mpi_sleep", 1'000'000);
    machine.shared_fs().put("mpi_sleep_write", 1'000'000);
    machine.shared_fs().put("sleep", 16'384);
    machine.shared_fs().put("noop", 16'384);
    std::vector<os::NodeId> alloc;
    for (std::size_t i = 0; i < nodes; ++i) {
      alloc.push_back(static_cast<os::NodeId>(i));
    }
    coasters.start_on(alloc);
  }

  static CoasterService::Config config(int wpn) {
    CoasterService::Config c;
    c.worker.task_overhead = sim::milliseconds(2);
    c.workers_per_node = wpn;
    return c;
  }

  void execute() {
    engine.spawn("t", [](SwiftEngine& s) -> sim::Task<void> {
      co_await s.run_to_completion();
    }(swift));
    engine.run();
  }
};

TEST(Script, SimpleAppRuns) {
  ScriptBed bed(2);
  bed.runner.run(R"(
    file out;
    app (out) = sleep(1);
  )");
  bed.execute();
  EXPECT_EQ(bed.swift.completed(), 1u);
  EXPECT_TRUE(bed.runner.variable("out")->is_set());
}

TEST(Script, ForeachUnrollsAndRunsConcurrently) {
  ScriptBed bed(8);
  bed.runner.run(R"(
    file out[];
    foreach i in 0..7 {
      app (out[i]) = sleep(2);
    }
  )");
  bed.execute();
  EXPECT_EQ(bed.runner.statements_registered(), 8u);
  EXPECT_EQ(bed.swift.completed(), 8u);
  EXPECT_LT(sim::to_seconds(bed.engine.now()), 4.0);  // parallel, not 16 s
}

TEST(Script, DataflowChainSerializes) {
  ScriptBed bed(4);
  bed.runner.run(R"(
    file a; file b; file c;
    app (c) = sleep(1, b);   # depends on b
    app (b) = sleep(1, a);   # depends on a
    set a;
  )");
  bed.execute();
  EXPECT_EQ(bed.swift.completed(), 2u);
  EXPECT_TRUE(bed.runner.variable("c")->is_set());
  EXPECT_GE(sim::to_seconds(bed.engine.now()), 2.0);  // chained
}

TEST(Script, Fig14SyntheticLoop) {
  // The Fig 14 script shape: a loop of MPI tasks through Coasters.
  ScriptBed bed(8, /*workers_per_node=*/1);
  bed.runner.run(R"(
    file out[];
    foreach i in 0..5 {
      app (out[i]) = mpi_sleep_write(2, "/gpfs/out") mpi nprocs=4 ppn=2;
    }
  )");
  bed.execute();
  EXPECT_EQ(bed.swift.completed(), 6u);
  EXPECT_EQ(bed.swift.failed(), 0u);
}

TEST(Script, ParityConditionalMatchesFig17Modulus) {
  ScriptBed bed(4);
  bed.runner.run(R"(
    file even[]; file odd[];
    foreach i in 0..5 {
      if (i %% 2 == 0) {
        app (even[i]) = noop();
      } else {
        app (odd[i]) = noop();
      }
    }
  )");
  bed.execute();
  for (int i = 0; i < 6; i += 2) {
    EXPECT_NE(bed.runner.variable("even", i), nullptr) << i;
    EXPECT_EQ(bed.runner.variable("odd", i), nullptr) << i;
  }
  for (int i = 1; i < 6; i += 2) {
    EXPECT_NE(bed.runner.variable("odd", i), nullptr) << i;
  }
}

TEST(Script, IndexArithmeticAndLoginApps) {
  // A miniature REM column: segments feed a login-node exchange.
  ScriptBed bed(4);
  bed.runner.run(R"(
    file o[]; file x[];
    foreach i in 0..1 {
      app (o[i*2]) = sleep(1);
    }
    app (x[0], x[2]) = exchange(o[0], o[2]) login cost=0.5;
  )");
  bed.execute();
  EXPECT_EQ(bed.swift.failed(), 0u);
  EXPECT_TRUE(bed.runner.variable("x", 0)->is_set());
  EXPECT_TRUE(bed.runner.variable("x", 2)->is_set());
  // exchange ran after both 1 s segments plus its own 0.5 s.
  EXPECT_GE(sim::to_seconds(bed.engine.now()), 1.5);
}

TEST(Script, LoopVariableAsArgv) {
  ScriptBed bed(2);
  bed.apps.install("want_int", [](os::Env& env) -> sim::Task<void> {
    EXPECT_EQ(env.argv.at(1), "3");
    EXPECT_EQ(env.argv.at(2), "4");  // (i+1) parenthesized expression
    co_return;
  });
  bed.runner.run(R"(
    file out[];
    foreach i in 3..3 {
      app (out[i]) = want_int(i, (i+1));
    }
  )");
  bed.execute();
  EXPECT_EQ(bed.swift.failed(), 0u);
}

TEST(Script, SyntaxErrorsReportLines) {
  ScriptBed bed(2);
  try {
    bed.runner.run("file x;\napp (x) = broken(;\n");
    FAIL() << "expected ScriptError";
  } catch (const ScriptError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(Script, UndeclaredVariableRejected) {
  ScriptBed bed(2);
  EXPECT_THROW(bed.runner.run("app (nope) = noop();"), ScriptError);
}

TEST(Script, DoubleSetRejected) {
  ScriptBed bed(2);
  EXPECT_THROW(bed.runner.run("file a; set a; set a;"), ScriptError);
}

TEST(Script, HostileInputsRaiseScriptErrorWithTheirLine) {
  // Each once escaped as a standard-library exception, a signal or
  // undefined behaviour instead of a ScriptError naming the line.
  struct Case {
    std::string source;
    std::size_t line;
  };
  const Case cases[] = {
      // INT64_MIN %% -1: the quotient overflows (SIGFPE on x86).
      {"file o[];\napp (o[(0 - 9223372036854775807 - 1) %% (0 - 1)]) = noop();",
       2},
      // Signed overflow in +, - and *.
      {"file o[];\napp (o[9223372036854775807 + 1]) = noop();", 2},
      {"file o[];\napp (o[0 - 9223372036854775807 - 2]) = noop();", 2},
      {"file o[];\n\napp (o[4611686018427387904 * 2]) = noop();", 3},
      // Literals past int64 and past double (std::out_of_range).
      {"file o[];\napp (o[99999999999999999999]) = noop();", 2},
      {"file o;\napp (o) = sleep(" + std::string(400, '9') + ".5);", 2},
      // A second set of one variable (std::logic_error, no line).
      {"file t;\nset t;\nset t;", 3},
  };
  for (const Case& c : cases) {
    ScriptBed bed(1);
    try {
      bed.runner.run(c.source);
      ADD_FAILURE() << "accepted: " << c.source;
    } catch (const ScriptError& e) {
      EXPECT_EQ(e.line(), c.line) << c.source;
    }
  }
}

TEST(Script, ForeachRangeEndingAtInt64MaxStops) {
  // Stepping the loop counter past the last value overflowed (undefined
  // behaviour), and the wrapped counter then looped without end.
  ScriptBed bed(2);
  bed.runner.run(R"(file out[];
foreach i in 9223372036854775806..9223372036854775807 {
  app (out[i]) = noop();
})");
  EXPECT_EQ(bed.runner.statements_registered(), 2u);
  bed.execute();
  EXPECT_EQ(bed.swift.completed(), 2u);
  EXPECT_TRUE(bed.runner.variable("out", 9223372036854775807)->is_set());
}

TEST(Script, UnterminatedStringRejected) {
  ScriptBed bed(2);
  EXPECT_THROW(bed.runner.run("file a;\napp (a) = noop(\"oops);"), ScriptError);
}

TEST(Script, CommentsAndWhitespaceIgnored) {
  ScriptBed bed(2);
  bed.runner.run("# leading comment\n\n  file a;  # trailing\n app (a) = noop();");
  bed.execute();
  EXPECT_EQ(bed.swift.completed(), 1u);
}

TEST(Script, NegativeAndNestedExpressions) {
  ScriptBed bed(2);
  bed.runner.run(R"(
    file out[];
    foreach i in 0..0 {
      app (out[(i+2)*3-6]) = noop();   # index 0
    }
  )");
  bed.execute();
  EXPECT_TRUE(bed.runner.variable("out", 0)->is_set());
}

}  // namespace
}  // namespace jets::swift
