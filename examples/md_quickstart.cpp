// The molecular dynamics kernel on its own: a real Lennard-Jones NVE run
// with energy accounting, then a replica-exchange study showing how the
// exchange acceptance rate depends on the temperature-ladder span — the
// physics knob the paper's REM users tune (§3).
//
// Everything here is genuine computation (no simulated time involved).
// The last section times the kernel to extrapolate a NAMD segment's wall
// time on this host; the figures instead use apps::NamdModel's fixed fit
// of the paper's Fig 11.
//
// Build & run:  ./build/examples/md_quickstart
#include <chrono>
#include <cstdio>
#include <string>

#include "md/lj_system.hh"
#include "md/analysis.hh"
#include "md/replica_exchange.hh"

using namespace jets;

namespace {

/// Derives the wall-time a segment of `steps` MD steps of an `atoms`-sized
/// system would take, by actually running the Lennard-Jones kernel on a
/// smaller system and extrapolating its cost. Returns the median seconds
/// to plug into apps::NamdModel.
double calibrate_from_kernel(std::size_t atoms, std::size_t steps,
                             double machine_slowdown) {
  // Run a small real LJ system and scale: the all-pairs force loop is
  // O(N^2) at fixed density with our simple implementation (cell lists
  // would make it O(N)); NAMD-like codes are closer to O(N), so we scale
  // linearly in N and in steps, then apply the host-vs-BG/P slowdown.
  md::LjConfig config;
  config.particles = 500;
  md::LjSystem sys(config);
  sys.step(5);  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  constexpr std::size_t kMeasuredSteps = 10;
  sys.step(kMeasuredSteps);
  const auto t1 = std::chrono::steady_clock::now();
  const double per_step_per_atom =
      std::chrono::duration<double>(t1 - t0).count() /
      static_cast<double>(kMeasuredSteps) /
      static_cast<double>(config.particles);
  return per_step_per_atom * static_cast<double>(atoms) *
         static_cast<double>(steps) * machine_slowdown;
}

}  // namespace

int main() {
  // --- NVE trajectory with energy conservation ---------------------------
  md::LjConfig config;
  config.particles = 256;
  config.density = 0.8;
  config.temperature = 1.1;
  md::LjSystem sys(config);
  std::printf("LJ system: %zu particles, box %.2f, T0 %.2f\n", sys.size(),
              sys.box(), sys.observe().temperature);
  std::printf("%-8s %-12s %-12s %-12s %s\n", "step", "kinetic", "potential",
              "total", "T_inst");
  for (int block = 0; block <= 10; ++block) {
    const auto o = sys.observe();
    std::printf("%-8d %-12.3f %-12.3f %-12.3f %.3f\n", block * 50, o.kinetic,
                o.potential, o.total(), o.temperature);
    if (block < 10) sys.step(50);
  }

  // --- Exchange acceptance vs ladder span --------------------------------
  std::printf("\nreplica exchange: acceptance vs temperature span "
              "(8 replicas, 30 rounds)\n");
  std::printf("%-12s %s\n", "t_max/t_min", "acceptance");
  for (double span : {1.2, 1.5, 2.0, 3.0}) {
    md::ReplicaExchange::Config rc;
    rc.system = config;
    rc.system.particles = 108;
    rc.replicas = 8;
    rc.t_min = 0.8;
    rc.t_max = 0.8 * span;
    rc.steps_per_segment = 25;
    md::ReplicaExchange rem(rc);
    for (int i = 0; i < 30; ++i) rem.run_round();
    std::printf("%-12.1f %.2f\n", span, rem.acceptance_rate());
  }

  // --- Structure & transport analysis -------------------------------------
  std::printf("\nradial distribution g(r) after equilibration:\n");
  auto g = md::radial_distribution(sys, 3.0, 12);
  for (std::size_t b = 0; b < g.size(); ++b) {
    std::printf("  r=%.2f  g=%.2f %s\n", (b + 0.5) * 0.25, g[b],
                std::string(static_cast<std::size_t>(g[b] * 20), '#').c_str());
  }
  md::MsdTracker msd(sys);
  for (int i = 0; i < 20; ++i) {
    sys.step(25);
    msd.sample(sys);
  }
  std::printf("MSD over 500 steps: %.3f sigma^2, D ~ %.4f\n", msd.msd(),
              msd.diffusion(500 * config.dt));

  // --- Kernel-timed NAMD segment ------------------------------------------
  const double bgp_segment_s = calibrate_from_kernel(
      /*atoms=*/44'992, /*steps=*/10, /*machine_slowdown=*/1.0);
  std::printf("\nkernel-extrapolated 44,992-atom 10-step segment on this "
              "host: %.2f s\n", bgp_segment_s);
  std::printf("(the paper's BG/P measured ~100 s on 4x 850 MHz cores)\n");
  return 0;
}
