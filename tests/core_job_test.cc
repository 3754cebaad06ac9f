// Unit tests for JETS job specs and the stand-alone input-file parser.
#include <gtest/gtest.h>

#include "core/job.hh"

namespace jets::core {
namespace {

TEST(ParseJobList, PaperExampleFormat) {
  // Verbatim from §5.1.
  const std::string input =
      "MPI: 4 namd2.sh input-1.pdb output-1.log\n"
      "MPI: 8 namd2.sh input-2.pdb output-2.log\n"
      "MPI: 6 namd2.sh input-3.pdb output-3.log\n";
  auto jobs = parse_job_list(input);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].kind, JobKind::kMpi);
  EXPECT_EQ(jobs[0].nprocs, 4);
  EXPECT_EQ(jobs[1].nprocs, 8);
  EXPECT_EQ(jobs[2].nprocs, 6);
  EXPECT_EQ(jobs[0].argv,
            (std::vector<std::string>{"namd2.sh", "input-1.pdb", "output-1.log"}));
}

TEST(ParseJobList, SequentialLines) {
  auto jobs = parse_job_list("my_tool --flag in.dat\nnoop\n");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].kind, JobKind::kSequential);
  EXPECT_EQ(jobs[0].nprocs, 1);
  EXPECT_EQ(jobs[0].workers_needed(), 1);
  EXPECT_EQ(jobs[1].argv, (std::vector<std::string>{"noop"}));
}

TEST(ParseJobList, CommentsAndBlanksSkipped) {
  auto jobs = parse_job_list("# a comment\n\nMPI: 2 app # trailing\n   \n");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].argv, (std::vector<std::string>{"app"}));
}

TEST(ParseJobList, DefaultPpnAppliesToMpiOnly) {
  auto jobs = parse_job_list("MPI: 8 app\nseq_tool\n", /*default_ppn=*/4);
  EXPECT_EQ(jobs[0].ppn, 4);
  EXPECT_EQ(jobs[0].workers_needed(), 2);  // 8 ranks / 4 per worker
  EXPECT_EQ(jobs[1].ppn, 1);
}

TEST(ParseJobList, PerLinePpnOption) {
  auto jobs = parse_job_list("MPI[ppn=4]: 16 app x\nMPI: 8 app\n", 2);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].ppn, 4);           // per-line override
  EXPECT_EQ(jobs[0].nprocs, 16);
  EXPECT_EQ(jobs[0].workers_needed(), 4);
  EXPECT_EQ(jobs[1].ppn, 2);           // batch default
}

TEST(ParseJobList, BadPpnOptionsThrow) {
  EXPECT_THROW(parse_job_list("MPI[ppn=zero]: 4 app\n"), std::invalid_argument);
  EXPECT_THROW(parse_job_list("MPI[ppn=2zz]: 4 app\n"), std::invalid_argument);
  EXPECT_THROW(parse_job_list("MPI[ppn=0]: 4 app\n"), std::invalid_argument);
  EXPECT_THROW(parse_job_list("MPI[nodes=2]: 4 app\n"), std::invalid_argument);
}

TEST(ParseJobList, MalformedLinesThrow) {
  EXPECT_THROW(parse_job_list("MPI: four app\n"), std::invalid_argument);
  EXPECT_THROW(parse_job_list("MPI: 4x prog\n"), std::invalid_argument);
  EXPECT_THROW(parse_job_list("MPI: +4 prog\n"), std::invalid_argument);
  EXPECT_THROW(parse_job_list("MPI: 4\n"), std::invalid_argument);
  EXPECT_THROW(parse_job_list("MPI: 0 app\n"), std::invalid_argument);
  EXPECT_THROW(parse_job_list("MPI: 2 app", 0), std::invalid_argument);
}

TEST(JobSpec, WorkersNeededRoundsUp) {
  JobSpec s;
  s.kind = JobKind::kMpi;
  s.nprocs = 7;
  s.ppn = 2;
  EXPECT_EQ(s.workers_needed(), 4);
  s.ppn = 7;
  EXPECT_EQ(s.workers_needed(), 1);
  s.kind = JobKind::kSequential;
  EXPECT_EQ(s.workers_needed(), 1);
}

TEST(JobRecord, WallSecondsGuardsUnset) {
  JobRecord r;
  EXPECT_DOUBLE_EQ(r.wall_seconds(), 0.0);
  r.started_at = sim::seconds(10);
  r.finished_at = sim::seconds(25);
  EXPECT_DOUBLE_EQ(r.wall_seconds(), 15.0);
}

}  // namespace
}  // namespace jets::core
