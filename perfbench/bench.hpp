// Shared declarations of the perfbench program (see README.md in this
// directory for the workloads, the metrics and what each layer metric
// should move).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "clique/common.hpp"
#include "clique/engine.hpp"
#include "clique/query.hpp"
#include "graph/graph.hpp"
#include "report.hpp"

namespace perfbench {

/// Every workload keeps this many workers busy (serve_mix as that many
/// clients with one worker each): on a shared host the full pool spreads
/// run to run far more than a fixed pair does.
inline constexpr int kWorkers = 2;

/// Size of the Figure 7-9 stand-ins relative to their recipes in inputs.hpp
/// (themselves 50-500x below the real datasets): one pass of the paper
/// sweep takes ~5 s at two workers.
inline constexpr double kSweepScale = 0.1;

/// The seed whose counts are pinned in expected.hpp.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Where runs leave snapshots and span traces, relative to the checkout
/// root perfbench runs from.
inline constexpr const char* kOutDir = ".bench_out";

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 45.0;
  bool trace = false;
};

/// What one run reports: the metrics of its mode plus the operation tally.
struct Result {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The four algorithms of the paper's comparison, with their metric tags.
struct AlgorithmTag {
  c3::Algorithm algorithm;
  const char* tag;
};
inline constexpr AlgorithmTag kAlgorithms[] = {
    {c3::Algorithm::C3List, "c3list"},
    {c3::Algorithm::C3ListCD, "c3list_cd"},
    {c3::Algorithm::ArbCount, "arbcount"},
    {c3::Algorithm::KCList, "kclist"},
};
inline constexpr int kNumAlgorithms = 4;

inline c3::CliqueOptions options_for(c3::Algorithm algorithm) {
  c3::CliqueOptions opts;
  opts.algorithm = algorithm;
  return opts;
}

struct NamedGraph {
  std::string name;
  c3::Graph graph;
};

/// One count question of a sweep: graph index and clique size.
struct GridPoint {
  int graph;
  int k;
};

// layers.cpp — per-layer probes shared by every workload's traced run.
void probe_prepare_layers(const std::vector<NamedGraph>& graphs, Tracer& tracer, Metrics& out);
void probe_search(const std::vector<NamedGraph>& graphs, const std::vector<GridPoint>& grid, Tracer& tracer,
                  Metrics& out, Result& tally);
void probe_kernels(Metrics& out);
/// One engine and the questions QueryBatch runs against it.
struct BatchWork {
  const c3::PreparedGraph* engine;
  std::vector<c3::Query> queries;
};
void probe_batch(const std::vector<BatchWork>& work, Tracer& tracer, Metrics& out, Result& tally);

// serve.cpp
Result run_serve_mix(const Args& args);
/// The serving-layer probe of a sweep's traced run: the workload's graphs
/// behind a snapshot-backed service and a loopback server, asked the
/// workload's own count questions twice (misses, then cache hits).
void probe_serving(const std::vector<NamedGraph>& graphs, const std::vector<GridPoint>& grid,
                   Tracer& tracer, Metrics& out, Result& tally);

// sweep.cpp
Result run_sweep(const Args& args);

}  // namespace perfbench
