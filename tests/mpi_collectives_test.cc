// Parameterized tests for the MPI collectives (binomial bcast, reduce,
// allreduce) across job sizes, including non-power-of-two and rotated-root
// cases.
#include <gtest/gtest.h>

#include "mpi/comm.hh"
#include "testbed.hh"

namespace jets::mpi {
namespace {

using os::Env;
using sim::Task;
using test::TestBed;

std::vector<os::NodeId> hosts(int n) {
  std::vector<os::NodeId> h;
  for (int i = 0; i < n; ++i) h.push_back(static_cast<os::NodeId>(i));
  return h;
}

class CollectivesTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesTest, BcastReachesEveryRank) {
  const int n = GetParam();
  TestBed bed(os::Machine::breadboard(static_cast<std::size_t>(n)));
  std::vector<std::size_t> got;
  bed.install_app("bc", [&got](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    const std::size_t mine = comm->rank() == 0 ? 123'456u : 0u;
    const std::size_t out = co_await comm->bcast(mine, /*root=*/0);
    got.push_back(out);
    co_await comm->finalize();
  });
  pmi::MpiexecSpec spec;
  spec.user_argv = {"bc"};
  spec.nprocs = n;
  auto mpx = bed.launch_manual(spec, hosts(n));
  ASSERT_EQ(bed.run_to_completion(*mpx), 0);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
  for (std::size_t v : got) EXPECT_EQ(v, 123'456u);
}

TEST_P(CollectivesTest, BcastWithNonzeroRoot) {
  const int n = GetParam();
  // For n == 1 the "last rank" root degenerates to 0 — still a valid case.
  TestBed bed(os::Machine::breadboard(static_cast<std::size_t>(n)));
  const int root = n - 1;
  int correct = 0;
  bed.install_app("bc", [&correct, root](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    const std::size_t mine = comm->rank() == root ? 777u : 0u;
    if (co_await comm->bcast(mine, root) == 777u) ++correct;
    co_await comm->finalize();
  });
  pmi::MpiexecSpec spec;
  spec.user_argv = {"bc"};
  spec.nprocs = n;
  auto mpx = bed.launch_manual(spec, hosts(n));
  ASSERT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_EQ(correct, n);
}

TEST(Collectives, InvalidRootThrows) {
  constexpr int n = 4;
  TestBed bed(os::Machine::breadboard(n));
  int caught = 0;
  bed.install_app("badroot", [&caught](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    try {
      co_await comm->bcast(64, /*root=*/n);  // one past the last rank
    } catch (const std::invalid_argument&) {
      ++caught;
    }
    try {
      co_await comm->reduce_sum(1.0, /*root=*/-1);
    } catch (const std::invalid_argument&) {
      ++caught;
    }
    co_await comm->finalize();
  });
  pmi::MpiexecSpec spec;
  spec.user_argv = {"badroot"};
  spec.nprocs = n;
  auto mpx = bed.launch_manual(spec, hosts(n));
  ASSERT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_EQ(caught, 2 * n);  // every rank rejected both bad roots
}

TEST_P(CollectivesTest, ReduceSumsAllContributions) {
  const int n = GetParam();
  TestBed bed(os::Machine::breadboard(static_cast<std::size_t>(n)));
  double root_total = -1;
  bed.install_app("red", [&root_total](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    const double mine = comm->rank() + 1;  // 1 + 2 + ... + n
    const double total = co_await comm->reduce_sum(mine, /*root=*/0);
    if (comm->rank() == 0) root_total = total;
    co_await comm->finalize();
  });
  pmi::MpiexecSpec spec;
  spec.user_argv = {"red"};
  spec.nprocs = n;
  auto mpx = bed.launch_manual(spec, hosts(n));
  ASSERT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_DOUBLE_EQ(root_total, n * (n + 1) / 2.0);
}

TEST_P(CollectivesTest, AllreduceGivesEveryoneTheSum) {
  const int n = GetParam();
  TestBed bed(os::Machine::breadboard(static_cast<std::size_t>(n)));
  std::vector<double> results;
  bed.install_app("ar", [&results](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    const double total = co_await comm->allreduce_sum(comm->rank() + 1);
    results.push_back(total);
    co_await comm->finalize();
  });
  pmi::MpiexecSpec spec;
  spec.user_argv = {"ar"};
  spec.nprocs = n;
  auto mpx = bed.launch_manual(spec, hosts(n));
  ASSERT_EQ(bed.run_to_completion(*mpx), 0);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(n));
  for (double v : results) EXPECT_DOUBLE_EQ(v, n * (n + 1) / 2.0);
}

// Reductions carry their doubles exactly. The text form of the MPI wire
// renders a value with "%f" (six decimals), which turned reduce_sum(1e-7)
// over 4 ranks into 9.9999999999999995e-08; the typed wire does not round.
TEST(CollectivesPrecision, ReduceSumIsTheExactTreeOrderSum) {
  constexpr int n = 4;
  TestBed bed(os::Machine::breadboard(n));
  double root_total = -1;
  bed.install_app("tiny", [&root_total](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    const double total = co_await comm->reduce_sum(1e-7, /*root=*/0);
    if (comm->rank() == 0) root_total = total;
    co_await comm->finalize();
  });
  pmi::MpiexecSpec spec;
  spec.user_argv = {"tiny"};
  spec.nprocs = n;
  auto mpx = bed.launch_manual(spec, hosts(n));
  ASSERT_EQ(bed.run_to_completion(*mpx), 0);
  // The binomial tree adds pairs (0,1) and (2,3), then the two partials.
  EXPECT_EQ(root_total, (1e-7 + 1e-7) + (1e-7 + 1e-7));
}

TEST(CollectivesPrecision, AllreduceSumIsExactOnEveryRank) {
  constexpr int n = 3;
  TestBed bed(os::Machine::breadboard(n));
  std::vector<double> results;
  bed.install_app("tenth", [&results](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    results.push_back(co_await comm->allreduce_sum(0.1));
    co_await comm->finalize();
  });
  pmi::MpiexecSpec spec;
  spec.user_argv = {"tenth"};
  spec.nprocs = n;
  auto mpx = bed.launch_manual(spec, hosts(n));
  ASSERT_EQ(bed.run_to_completion(*mpx), 0);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(n));
  // Rank 0 adds rank 1's value, then rank 2's; the sum is broadcast back
  // (0.30000000000000004, which six decimals would have made 0.3).
  for (double v : results) EXPECT_EQ(v, (0.1 + 0.1) + 0.1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectivesTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 13, 16),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

// Collectives compose: a tiny "global energy" computation like an MD code
// would do each step (allreduce of per-rank partials, then a bcast'd
// decision), repeated.
TEST(CollectivesComposition, RepeatedAllreducePlusBcast) {
  constexpr int n = 6;
  TestBed bed(os::Machine::breadboard(n));
  int converged = 0;
  bed.install_app("md_like", [&converged](Env& env) -> Task<void> {
    auto comm = co_await Comm::init(env);
    double local = 10.0 * (comm->rank() + 1);
    for (int step = 0; step < 5; ++step) {
      const double global = co_await comm->allreduce_sum(local);
      EXPECT_NEAR(global, 210.0 / (1 << step), 1e-9);
      local /= 2;  // everybody halves, so the sum halves per step
      co_await comm->barrier();
    }
    ++converged;
    co_await comm->finalize();
  });
  pmi::MpiexecSpec spec;
  spec.user_argv = {"md_like"};
  spec.nprocs = n;
  auto mpx = bed.launch_manual(spec, hosts(n));
  ASSERT_EQ(bed.run_to_completion(*mpx), 0);
  EXPECT_EQ(converged, n);
}

}  // namespace
}  // namespace jets::mpi
