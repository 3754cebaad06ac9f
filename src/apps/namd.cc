#include "apps/namd.hh"

#include <cmath>

#include "mpi/comm.hh"
#include "sim/random.hh"

namespace jets::apps {

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

double sample_segment_seconds(const NamdModel& model, const std::string& tag) {
  sim::Rng rng(fnv1a(tag));
  // ~91.5 % of the median is the deterministic floor; the rest is a
  // lognormal straggler tail. Median stays at model.median_seconds.
  const double floor = 0.915 * model.median_seconds;
  return floor + rng.lognormal_median(0.085 * model.median_seconds, model.sigma);
}

void install_namd_app(os::AppRegistry& registry, NamdModel model) {
  registry.install("namd_segment", [model](os::Env& env) -> sim::Task<void> {
    const double median =
        env.argv.size() > 1 ? std::stod(env.argv[1]) : model.median_seconds;
    const double sigma =
        env.argv.size() > 2 ? std::stod(env.argv[2]) : model.sigma;
    const std::string tag = env.argv.size() > 3 ? env.argv[3] : "seg";
    NamdModel m = model;
    m.median_seconds = median;
    m.sigma = sigma;
    const double compute_s = sample_segment_seconds(m, tag);

    if (env.pmi != nullptr) {
      auto comm = co_await mpi::Comm::init(env);
      co_await comm->barrier();
      if (comm->rank() == 0) {
        // MPI-IO style aggregation: one filesystem client per job.
        co_await env.machine->shared_fs().io(m.input_bytes, m.input_files);
      }
      co_await sim::delay(sim::from_seconds(compute_s));
      co_await comm->barrier();
      if (comm->rank() == 0) {
        co_await env.machine->shared_fs().io(m.output_bytes, m.output_files);
        env.write_stdout(m.stdout_bytes);
      }
      co_await comm->finalize();
    } else {
      co_await env.machine->shared_fs().io(m.input_bytes, m.input_files);
      co_await sim::delay(sim::from_seconds(compute_s));
      co_await env.machine->shared_fs().io(m.output_bytes, m.output_files);
      env.write_stdout(m.stdout_bytes);
    }
  });
}

}  // namespace jets::apps
