// perfbench — the benchmark program of this repository.
//
//   perfbench --workload paper_sweep|serve_mix --seed N
//             --seconds S --trace 0|1
//
// Run from the checkout root (perfbench/run.py builds and runs it). Prints
// every metric of the run as "name value unit", then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 the per-layer ones, and writes
// the run's spans to .bench_out/trace_<workload>.json. Snapshots go to
// .bench_out too. Exits 1 when any answer is wrong, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload paper_sweep|serve_mix "
               "--seed N --seconds S --trace 0|1\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) return usage("--seconds must be positive");

  perfbench::Result result;
  try {
    std::filesystem::create_directories(perfbench::kOutDir);
    if (args.workload == "paper_sweep") {
      result = perfbench::run_sweep(args);
    } else if (args.workload == "serve_mix") {
      result = perfbench::run_serve_mix(args);
    } else {
      return usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  result.metrics.print_lines();
  std::printf("%-40s %.6g ratio\n", "error_rate",
              static_cast<double>(result.failed) / static_cast<double>(result.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.failed == 0 ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), result.metrics.json().c_str());
  return result.failed == 0 ? 0 : 1;
}
