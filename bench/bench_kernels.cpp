// Kernel-substrate ablation bench — the perf evidence for the PR 7 SIMD
// bit-kernel work. Two sections:
//
//   micro      — the fused intersect kernels and masked popcounts timed per
//                backend (every backend the host can run, scalar included)
//                on 1024-bit and 8192-bit universes; reported as ns/op and
//                speedup over the scalar table.
//   end_to_end — the CI smoke graphs plus a community-overlay graph counted
//                by every production algorithm twice: once with the dispatch
//                pinned to scalar, once on the host-selected backend. The
//                self-timed search_seconds are compared and the counts are
//                cross-checked (non-zero exit on any mismatch). Also exits
//                non-zero when c3List's dense_blocks k = 4 time is more than
//                4x kcList's from the same pass (the dense-regime guard).
//                dense_blocks is counted again at k = 6 by the algorithms
//                whose counts pivot on bitsets: 5.2e12 cliques, seconds for
//                all four only because they pivot.
//
//   ./bench_kernels [--out BENCH_pr7.json] [--reps 2] [--k 5]
//
// Schema: {"bench": "kernels", "host_backend", "workers", "micro":
// [{"op", "backend", "bits", "ns_per_op", "speedup_vs_scalar"}],
// "end_to_end": [{"graph", "algorithm", "k", "count", "scalar_seconds",
// "vector_seconds", "speedup"}], "checks_passed"}
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "c3list.hpp"
#include "datasets.hpp"
#include "util/bitkernels.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace c3;

/// Data sink the optimizer cannot remove.
volatile std::uint64_t g_sink = 0;

struct MicroResult {
  std::string op;
  bits::KernelBackend backend;
  std::size_t nbits = 0;
  double ns_per_op = 0.0;
  double speedup_vs_scalar = 0.0;  ///< filled once the scalar row is known
};

/// Times `op(table)` (which must consume the whole universe once per call)
/// and returns the best-of-3 ns per call.
template <typename Op>
double time_op(std::size_t iters, const Op& op) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t acc = 0;
    WallTimer timer;
    for (std::size_t i = 0; i < iters; ++i) acc += op();
    const double s = timer.seconds();
    g_sink = acc;
    const double ns = s * 1e9 / static_cast<double>(iters);
    best = rep == 0 ? ns : std::min(best, ns);
  }
  return best;
}

/// Micro section: every available backend against random word buffers.
std::vector<MicroResult> run_micro() {
  std::vector<MicroResult> results;
  Xoshiro256 rng(0xBEEF);
  for (const std::size_t nbits : {std::size_t{1024}, std::size_t{8192}}) {
    const std::size_t nwords = bits::kernel_stride_words(nbits);
    bits::KernelWords a(nwords), b(nwords), mask(nwords), dst(nwords);
    for (std::size_t w = 0; w < nwords; ++w) {
      a[w] = rng();
      b[w] = rng();
      mask[w] = rng() | rng();  // denser mask, like a community bitmap
    }
    // Keep each measurement around a millisecond regardless of width.
    const std::size_t iters = std::max<std::size_t>(1, 2'000'000 / nwords);
    const std::size_t lo = 3, hi = nbits - 2;  // interval kernels span almost all words
    for (const bits::KernelBackend backend : bits::available_kernel_backends()) {
      const bits::KernelTable* table = bits::kernel_table(backend);
      if (table == nullptr) continue;
      results.push_back({"intersect_interval", backend, nbits,
                         time_op(iters,
                                 [&] {
                                   return table->intersect_interval(a.data(), b.data(), mask.data(),
                                                                    dst.data(), nwords, lo, hi);
                                 }),
                         0.0});
      results.push_back({"intersect_above", backend, nbits,
                         time_op(iters,
                                 [&] {
                                   return table->intersect_above(a.data(), mask.data(), dst.data(),
                                                                 nwords, lo);
                                 }),
                         0.0});
      results.push_back({"popcount_and", backend, nbits,
                         time_op(iters, [&] { return table->popcount_and(a.data(), b.data(), nwords); }),
                         0.0});
      results.push_back(
          {"popcount_and3", backend, nbits,
           time_op(iters,
                   [&] { return table->popcount_and3(a.data(), b.data(), mask.data(), nwords); }),
           0.0});
    }
  }
  // Attach the scalar baseline to every row of the same (op, nbits).
  for (MicroResult& r : results) {
    for (const MicroResult& s : results) {
      if (s.backend == bits::KernelBackend::Scalar && s.op == r.op && s.nbits == r.nbits) {
        r.speedup_vs_scalar = r.ns_per_op > 0.0 ? s.ns_per_op / r.ns_per_op : 0.0;
      }
    }
  }
  return results;
}

struct EndToEndResult {
  std::string graph;
  std::string algorithm;
  int k = 0;
  count_t count = 0;
  double scalar_seconds = 0.0;
  double vector_seconds = 0.0;
};

/// Best-of-`reps` self-timed search_seconds under the currently active
/// backend; also returns the count for the cross-check.
std::pair<count_t, double> timed_count(const PreparedGraph& engine, int k, int reps) {
  count_t count = 0;
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const CliqueResult r = engine.count(k);
    count = r.count;
    best = rep == 0 ? r.stats.search_seconds : std::min(best, r.stats.search_seconds);
  }
  return {count, best};
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const int k = static_cast<int>(cli.get_int("k", 5));
  const std::string out_path = cli.get_string("out", "BENCH_pr7.json");

  const bits::KernelBackend host = bits::active_kernel_backend();
  std::printf("bench_kernels: host backend %s (best %s), %d workers\n",
              bits::kernel_backend_name(host), bits::kernel_backend_name(bits::best_kernel_backend()),
              num_workers());

  // --- Micro section ------------------------------------------------------
  const std::vector<MicroResult> micro = run_micro();
  {
    Table t({"op", "backend", "bits", "ns/op", "vs scalar"});
    for (const MicroResult& r : micro) {
      t.add_row({r.op, bits::kernel_backend_name(r.backend), std::to_string(r.nbits),
                 strfmt("%.1f", r.ns_per_op), strfmt("%.2fx", r.speedup_vs_scalar)});
    }
    t.print();
  }

  // --- End-to-end section -------------------------------------------------
  struct BenchGraph {
    std::string name;
    Graph graph;
    int k;
    int reps;
    bool skip_cd = false;  ///< c3List-CD's per-edge G[V'(e)] takes ~40 s here
  };
  std::vector<BenchGraph> graphs;
  for (bench::SmokeGraph& sg : bench::smoke_graphs()) {
    graphs.push_back({std::move(sg.name), std::move(sg.graph), k, reps});
  }
  // Subproblems of <= 256 vertices take the inlined-scalar short circuit by
  // design (dispatch would cost more than the op), so the smoke graphs above
  // mostly measure parity, not speedup. This graph's communities span
  // 420-460 vertices — 8-word rows, a full 512-bit lane past the inline
  // threshold — so the search recursions actually dispatch with enough width
  // for the vectors to pay. k = 4 counts on Algorithm 2's c = 2 leaves; the
  // k = 6 row pivots (c3List-CD, which builds a G[V'(e)] per edge, sits it
  // out). One rep suffices at that scale.
  const Graph dense_blocks =
      bench::overlay_communities(social_like(1200, 6'000, 0.4, 21), 2, 420, 460, 99);
  graphs.push_back({"dense_blocks", dense_blocks, 4, 1});
  graphs.push_back({"dense_blocks", dense_blocks, 6, 1, true});

  const Algorithm algorithms[] = {Algorithm::C3List, Algorithm::C3ListCD, Algorithm::Hybrid,
                                  Algorithm::KCList, Algorithm::ArbCount};
  std::vector<EndToEndResult> e2e;
  bool mismatch = false;
  for (const BenchGraph& sg : graphs) {
    for (const Algorithm alg : algorithms) {
      if (sg.skip_cd && alg == Algorithm::C3ListCD) continue;
      CliqueOptions opts;
      opts.algorithm = alg;
      const PreparedGraph engine(sg.graph, opts);

      if (!bits::set_kernel_backend(bits::KernelBackend::Scalar)) {
        std::fprintf(stderr, "bench_kernels: cannot pin scalar backend\n");
        return 1;
      }
      const auto [scalar_count, scalar_s] = timed_count(engine, sg.k, sg.reps);
      if (!bits::set_kernel_backend(host)) {
        std::fprintf(stderr, "bench_kernels: cannot restore host backend\n");
        return 1;
      }
      const auto [vector_count, vector_s] = timed_count(engine, sg.k, sg.reps);

      if (scalar_count != vector_count) {
        std::printf("!! %s %s k=%d: scalar=%llu %s=%llu\n", sg.name.c_str(), algorithm_name(alg),
                    sg.k, static_cast<unsigned long long>(scalar_count),
                    bits::kernel_backend_name(host), static_cast<unsigned long long>(vector_count));
        mismatch = true;
      }
      e2e.push_back({sg.name, algorithm_name(alg), sg.k, vector_count, scalar_s, vector_s});
      std::fprintf(stderr, "  %s/%s: scalar %.3fs, %s %.3fs\n", sg.name.c_str(),
                   algorithm_name(alg), scalar_s, bits::kernel_backend_name(host), vector_s);
    }
  }
  {
    Table t({"graph", "algorithm", "k", "cliques", "scalar s", "vector s", "speedup"});
    for (const EndToEndResult& r : e2e) {
      const double speedup = r.vector_seconds > 0.0 ? r.scalar_seconds / r.vector_seconds : 0.0;
      t.add_row({r.graph, r.algorithm, std::to_string(r.k), std::to_string(r.count),
                 strfmt("%.4f", r.scalar_seconds), strfmt("%.4f", r.vector_seconds),
                 strfmt("%.2fx", speedup)});
    }
    t.print();
  }

  // --- Report -------------------------------------------------------------
  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "bench_kernels: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\"bench\": \"kernels\", \"host_backend\": \"%s\", \"workers\": %d, \"micro\": [",
               bits::kernel_backend_name(host), num_workers());
  for (std::size_t i = 0; i < micro.size(); ++i) {
    const MicroResult& r = micro[i];
    std::fprintf(json,
                 "%s{\"op\": \"%s\", \"backend\": \"%s\", \"bits\": %zu, \"ns_per_op\": %.3f, "
                 "\"speedup_vs_scalar\": %.4f}",
                 i > 0 ? ", " : "", r.op.c_str(), bits::kernel_backend_name(r.backend), r.nbits,
                 r.ns_per_op, r.speedup_vs_scalar);
  }
  std::fprintf(json, "], \"end_to_end\": [");
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const EndToEndResult& r = e2e[i];
    const double speedup = r.vector_seconds > 0.0 ? r.scalar_seconds / r.vector_seconds : 0.0;
    std::fprintf(json,
                 "%s{\"graph\": \"%s\", \"algorithm\": \"%s\", \"k\": %d, \"count\": %llu, "
                 "\"scalar_seconds\": %.6f, \"vector_seconds\": %.6f, \"speedup\": %.4f}",
                 i > 0 ? ", " : "", r.graph.c_str(), r.algorithm.c_str(), r.k,
                 static_cast<unsigned long long>(r.count), r.scalar_seconds, r.vector_seconds,
                 speedup);
  }
  std::fprintf(json, "], \"checks_passed\": %s}\n", mismatch ? "false" : "true");
  std::fclose(json);
  std::printf("wrote %s\n", out_path.c_str());

  if (mismatch) {
    std::fprintf(stderr, "bench_kernels: cross-check FAILED\n");
    return 1;
  }

  // The dense-regime guard: c3List builds one local graph per source, so on
  // dense_blocks it runs level with kcList; building one per edge there is
  // ~20x slower, which the limit catches. Both times are from this pass.
  double c3list_s = 0.0, kclist_s = 0.0;
  for (const EndToEndResult& r : e2e) {
    if (r.graph != "dense_blocks" || r.k != 4) continue;
    if (r.algorithm == algorithm_name(Algorithm::C3List)) c3list_s = r.vector_seconds;
    if (r.algorithm == algorithm_name(Algorithm::KCList)) kclist_s = r.vector_seconds;
  }
  constexpr double kDenseRatioLimit = 4.0;
  std::printf("dense_blocks k=4: c3List %.3fs, kcList %.3fs (%.2fx, limit %.0fx)\n", c3list_s,
              kclist_s, kclist_s > 0.0 ? c3list_s / kclist_s : 0.0, kDenseRatioLimit);
  if (c3list_s > kDenseRatioLimit * kclist_s) {
    std::fprintf(stderr, "bench_kernels: c3List is more than %.0fx kcList on dense_blocks\n",
                 kDenseRatioLimit);
    return 1;
  }
  return 0;
}
