#include "core/job.hh"

#include <sstream>
#include <stdexcept>
#include <string_view>

#include "net/number.hh"

namespace jets::core {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> toks;
  std::string t;
  while (is >> t) toks.push_back(std::move(t));
  return toks;
}

}  // namespace

const char* to_string(FailureReason reason) {
  switch (reason) {
    case FailureReason::kNone: return "none";
    case FailureReason::kAppExit: return "app-exit";
    case FailureReason::kWorkerLost: return "worker-lost";
    case FailureReason::kLivenessEvicted: return "liveness-evicted";
    case FailureReason::kGangPartnerLost: return "gang-partner-lost";
    case FailureReason::kLaunchTimeout: return "launch-timeout";
    case FailureReason::kJobDeadline: return "job-deadline";
    case FailureReason::kServiceAbort: return "service-abort";
    case FailureReason::kServiceRestart: return "service-restart";
    case FailureReason::kWalltimeDrain: return "walltime-drain";
  }
  return "unknown";
}

std::uint64_t record_digest(const JobRecord& rec) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(rec.id);
  mix(static_cast<std::uint64_t>(rec.status));
  mix(static_cast<std::uint64_t>(rec.attempts));
  mix(static_cast<std::uint64_t>(rec.app_failures));
  mix(static_cast<std::uint64_t>(rec.infra_failures));
  mix(static_cast<std::uint64_t>(rec.last_reason));
  mix(static_cast<std::uint64_t>(rec.submitted_at));
  mix(static_cast<std::uint64_t>(rec.started_at));
  mix(static_cast<std::uint64_t>(rec.finished_at));
  for (const AttemptRecord& att : rec.history) {
    mix(static_cast<std::uint64_t>(att.attempt));
    mix(static_cast<std::uint64_t>(att.started_at));
    mix(static_cast<std::uint64_t>(att.ended_at));
    mix(static_cast<std::uint64_t>(att.exit_status));
    mix(static_cast<std::uint64_t>(att.reason));
    mix(static_cast<std::uint64_t>(att.backoff));
  }
  for (net::NodeId node : rec.nodes) mix(static_cast<std::uint64_t>(node));
  return h;
}

std::vector<JobSpec> parse_job_list(const std::string& text, int default_ppn) {
  if (default_ppn < 1) throw std::invalid_argument("ppn must be >= 1");
  std::vector<JobSpec> jobs;
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::vector<std::string> toks = tokenize(line);
    if (toks.empty()) continue;
    JobSpec spec;
    spec.ppn = default_ppn;
    bool is_mpi = toks[0] == "MPI:";
    if (!is_mpi && toks[0].rfind("MPI[", 0) == 0 && toks[0].back() == ':') {
      // Per-line options: MPI[ppn=K]:
      const std::string opts = toks[0].substr(4, toks[0].size() - 6);
      if (toks[0][toks[0].size() - 2] != ']' || opts.rfind("ppn=", 0) != 0) {
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": bad MPI options '" + toks[0] + "'");
      }
      const auto ppn = net::rpc::parse_number<int>(
          std::string_view(opts).substr(4));
      if (!ppn) {
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": bad ppn in '" + toks[0] + "'");
      }
      spec.ppn = *ppn;
      if (spec.ppn < 1) {
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": ppn must be >= 1");
      }
      is_mpi = true;
    }
    if (is_mpi) {
      if (toks.size() < 3) {
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": MPI: needs a process count and command");
      }
      spec.kind = JobKind::kMpi;
      const auto nprocs = net::rpc::parse_number<int>(toks[1]);
      if (!nprocs) {
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": bad MPI process count '" + toks[1] + "'");
      }
      spec.nprocs = *nprocs;
      if (spec.nprocs < 1) {
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": MPI process count must be >= 1");
      }
      spec.argv.assign(toks.begin() + 2, toks.end());
    } else {
      spec.kind = JobKind::kSequential;
      spec.nprocs = 1;
      spec.ppn = 1;
      spec.argv = std::move(toks);
    }
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

}  // namespace jets::core
