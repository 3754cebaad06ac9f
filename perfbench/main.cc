// jets_perfbench: runs one pass of one benchmark workload and prints its
// raw values as one JSON object. run.py drives the passes and turns them
// into metrics; see README.md.
//
//   jets_perfbench --workload <name> [--seed N] [--small] [--trace]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hh"

int main(int argc, char** argv) {
  perfbench::PassOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--small") {
      opts.small = true;
    } else if (arg == "--trace") {
      opts.traced = true;
    } else {
      std::fprintf(stderr, "usage: %s --workload <name> [--seed N] [--small] [--trace]\n",
                   argv[0]);
      return 2;
    }
  }
  try {
    const perfbench::Report r = perfbench::run_pass(opts);
    std::printf("{\"digest\": \"%016" PRIx64 "\"", r.digest);
    for (const auto& [name, v] : r.values) std::printf(", \"%s\": %.17g", name.c_str(), v);
    std::printf("}\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jets_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
