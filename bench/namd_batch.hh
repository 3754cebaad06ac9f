// Shared runner for the NAMD bag-of-tasks experiments of §6.1.6
// (Figs 11, 12, 13): a batch of 4-processor NAMD segments, sized at six
// executions per node on average, run through stand-alone JETS on Surveyor
// with one worker (MPI process) per node and binaries staged to the
// ramdisk. NAMD I/O goes to the shared parallel filesystem; stdout is
// routed app -> proxy -> mpiexec -> JETS.
#pragma once

#include "harness.hh"

namespace jets::bench {

struct NamdBatchResult {
  core::BatchReport report;
  /// Busy cores over time (1 core per MPI process), for Fig 13.
  sim::TimeSeries load;
  std::uint64_t stdout_bytes = 0;
  /// Staging counters (populated only by the stage_inputs variant).
  std::uint64_t stage_requests = 0;
  std::uint64_t stage_warm_hits = 0;
  std::uint64_t stage_bytes_pushed = 0;
};

inline NamdBatchResult run_namd_batch(std::size_t alloc_nodes, int nproc = 4,
                                      bool stage_inputs = false) {
  Bed bed(os::Machine::surveyor(alloc_nodes));
  auto options = surveyor_options(/*workers_per_node=*/1);
  options.worker.stage_files = {pmi::kProxyBinary, "namd_segment"};
  core::StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(bed.nodes(alloc_nodes));

  // Six executions per node on average -> nodes*6/nproc jobs (1,536
  // 4-proc jobs on the full rack, §6.1.6). Round-robin over 32 distinct
  // REM cases, as the paper did with its user-provided batch.
  const std::size_t njobs = alloc_nodes * 6 / static_cast<std::size_t>(nproc);
  // The stage_inputs variant (JETS_STAGING series): each REM case reads its
  // own ~12 MB structure/coordinate blob, staged per-job through the CAS.
  if (stage_inputs) {
    for (int c = 0; c < 32; ++c) {
      bed.machine.shared_fs().put("rem_case_" + std::to_string(c), 12'000'000);
    }
  }
  std::vector<core::JobSpec> jobs;
  jobs.reserve(njobs);
  apps::NamdModel model;  // defaults fit Fig 11
  for (std::size_t j = 0; j < njobs; ++j) {
    jobs.push_back(mpi_job(
        nproc, {"namd_segment", std::to_string(model.median_seconds),
                std::to_string(model.sigma), "case-" + std::to_string(j % 32) +
                    "-" + std::to_string(j / 32)}));
    if (stage_inputs) {
      jobs.back().stage_files = {"rem_case_" + std::to_string(j % 32)};
    }
  }

  NamdBatchResult out;
  double busy = 0;  // running MPI processes, one core each
  jets.service().hooks().on_job_start = [&](const core::JobRecord& r) {
    busy += r.spec.nprocs;
    out.load.add(bed.engine.now(), busy);
  };
  jets.service().hooks().on_job_finish = [&](const core::JobRecord& r) {
    busy -= r.spec.nprocs;
    out.load.add(bed.engine.now(), busy);
  };
  bed.run([&]() -> sim::Task<void> {
    co_await jets.wait_workers();
    out.report = co_await jets.run_batch(jobs);
  });
  out.stage_requests = jets.service().stage_requests();
  out.stage_warm_hits = jets.service().stage_warm_hits();
  out.stage_bytes_pushed = jets.service().stage_bytes_pushed();
  return out;
}

}  // namespace jets::bench
