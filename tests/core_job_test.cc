// Unit tests for JETS job specs and the stand-alone input-file parser.
#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/job.hh"
#include "net/number.hh"

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

// --- Fuzz: a job file parses or is refused by line ---------------------------

/// Parses `text`: every spec must pass shape_valid() and carry a command,
/// or the parse must throw std::invalid_argument naming a line ("line <n>:
/// ...") — `bad_line` when the caller knows which one is bad, otherwise
/// one of the file's `lines`. Any other exception fails.
void expect_parsed_or_refused(const std::string& text, int default_ppn,
                              std::size_t lines, std::size_t bad_line = 0) {
  try {
    for (const JobSpec& spec : parse_job_list(text, default_ppn)) {
      EXPECT_TRUE(spec.shape_valid()) << text;
      EXPECT_FALSE(spec.argv.empty()) << text;
    }
  } catch (const std::invalid_argument& e) {
    const std::string_view what = e.what();
    const std::size_t colon = what.find(':');
    const auto n = what.starts_with("line ") && colon != std::string_view::npos
                       ? net::rpc::parse_number<std::size_t>(
                             what.substr(5, colon - 5))
                       : std::nullopt;
    ASSERT_TRUE(n.has_value()) << "names no line: " << what << "\n" << text;
    if (bad_line != 0) {
      EXPECT_EQ(*n, bad_line) << what << "\n" << text;
    } else {
      EXPECT_GE(*n, 1u) << what;
      EXPECT_LE(*n, lines) << what << "\n" << text;
    }
  } catch (...) {
    ADD_FAILURE() << "not std::invalid_argument on:\n" << text;
  }
}

const std::vector<std::string>& job_tokens() {
  static const std::vector<std::string> tokens = {
      "MPI:", "MPI[ppn=4]:", "MPI[ppn=1]:", "MPI[ppn=0]:", "MPI[ppn=-2]:",
      "MPI[ppn=]:", "MPI[ppn=4]", "MPI[]:", "MPI[:", "MPI[ppn=4:",
      "MPI[nodes=2]:", "MPI[ppn=2147483648]:", "MPI[ppn=+4]:", "MPI", "mpi:",
      ":", "0", "1", "4", "16", "-1", "+4", "04", "-0", "4x", "x4",
      "2147483647", "2147483648", "-2147483648", "99999999999999999999",
      "0x10", "namd2.sh", "in.pdb", "--flag", "#", "a#b", std::string(200, 'A'),
      std::string("\0nul", 4), "\xff\xfe", "\r", "\v", "\f", ""};
  return tokens;
}

TEST(ParseJobListFuzz, RandomFilesParseOrNameTheirLine) {
  std::mt19937 rng(0x4a4f4253u);  // fixed seed: failures must reproduce
  const std::vector<std::string>& tokens = job_tokens();
  const std::vector<std::string> seps = {" ", "\t", "  "};
  std::uniform_int_distribution<std::size_t> token(0, tokens.size() - 1);
  std::uniform_int_distribution<std::size_t> sep(0, seps.size() - 1);
  std::uniform_int_distribution<int> line_count(1, 8), width(0, 6), ppn(1, 4);
  for (int i = 0; i < 3000; ++i) {
    std::string text;
    const int lines = line_count(rng);
    for (int l = 0; l < lines; ++l) {
      if (l > 0) text += '\n';
      const int n = width(rng);
      for (int t = 0; t < n; ++t) {
        if (t > 0) text += seps[sep(rng)];
        text += tokens[token(rng)];
      }
    }
    if (rng() % 2 == 0) text += '\n';
    expect_parsed_or_refused(text, ppn(rng), static_cast<std::size_t>(lines));
  }
}

TEST(ParseJobListFuzz, OneMutatedTokenIsRefusedOnItsOwnLine) {
  // A valid file with one token replaced, dropped or inserted: the other
  // lines still parse, so a refusal must name the mutated line.
  const std::vector<std::vector<std::string>> valid = {
      {"MPI:", "4", "namd2.sh", "input-1.pdb", "output-1.log"},
      {"MPI[ppn=2]:", "8", "app", "x"},
      {"seq_tool", "--flag", "in.dat"},
      {"#", "a", "comment"},
      {},
      {"noop"},
  };
  std::mt19937 rng(0x4d555441u);
  const std::vector<std::string>& tokens = job_tokens();
  std::uniform_int_distribution<std::size_t> token(0, tokens.size() - 1);
  for (std::size_t line = 0; line < valid.size(); ++line) {
    for (std::size_t at = 0; at <= valid[line].size(); ++at) {
      for (int trial = 0; trial < 24; ++trial) {
        std::vector<std::vector<std::string>> file = valid;
        std::vector<std::string>& toks = file[line];
        const auto pos = toks.begin() + static_cast<std::ptrdiff_t>(at);
        if (trial % 3 == 0 || at == toks.size()) {
          toks.insert(pos, tokens[token(rng)]);
        } else if (trial % 3 == 1) {
          toks.erase(pos);
        } else {
          *pos = tokens[token(rng)];
        }
        std::string text;
        for (const auto& l : file) {
          for (std::size_t t = 0; t < l.size(); ++t) {
            text += (t > 0 ? " " : "") + l[t];
          }
          text += '\n';
        }
        expect_parsed_or_refused(text, 1, file.size(), line + 1);
      }
    }
  }
}

}  // namespace
}  // namespace jets::core
