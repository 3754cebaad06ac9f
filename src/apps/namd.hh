// The NAMD stand-in application (paper §6.1.6).
//
// One invocation models a replica-exchange NAMD segment: an NMA system of
// 44,992 atoms run for 10 timesteps, which the paper measures at ~100 s on
// 4 BG/P cores, with a long tail to ~160 s (Fig 11). I/O per run: 5 input
// files / 14.8 MB read, 3 output files / 2.2 MB written, ~11 KB of stdout.
//
// The compute time is sampled from a lognormal distribution whose median/
// shape parameters default to a fit of Fig 11, which every figure uses.
// examples/md_quickstart.cpp shows how timing the real Lennard-Jones
// kernel (src/md/) would re-derive the median on another host.
//
// Usage:  namd_segment <median_s> <sigma> <tag> [out_prefix]
// The <tag> seeds the duration sample, so a given segment's wall time is
// reproducible across runs and modes.
#pragma once

#include <cstdint>
#include <string>

#include "os/program.hh"

namespace jets::apps {

struct NamdModel {
  /// Wall times are floor + lognormal: a deterministic compute floor (the
  /// 10 NMA timesteps) plus a long-tailed straggler component (network/
  /// filesystem interference) — Fig 11: mode 100-120 s, tail to ~160 s.
  double median_seconds = 105.0;
  double sigma = 0.75;  // shape of the straggler tail
  std::uint64_t input_bytes = 14'800'000;   // 5 files
  unsigned input_files = 5;
  std::uint64_t output_bytes = 2'200'000;   // 3 files
  unsigned output_files = 3;
  std::uint64_t stdout_bytes = 11'000;
};

/// Installs "namd_segment" into the registry. The app runs under MPI when
/// launched with a PMI context (JETS MPI jobs) and sequentially otherwise;
/// only rank 0 performs file I/O (the MPI-IO aggregation the paper cites
/// as an MPTC benefit: N/ppn filesystem clients instead of N).
void install_namd_app(os::AppRegistry& registry, NamdModel model = {});

/// Deterministic per-invocation duration sample shared by the app and the
/// harness-side predictions.
double sample_segment_seconds(const NamdModel& model, const std::string& tag);

}  // namespace jets::apps
