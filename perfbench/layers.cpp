// Per-layer probes of a traced run. Each one times calls into one layer's
// public function from outside the library, on the workload's own graphs,
// and records a span around every call.
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "clique/batch.hpp"
#include "clique/engine.hpp"
#include "clique/query.hpp"
#include "graph/digraph.hpp"
#include "inputs.hpp"
#include "order/approx_degeneracy.hpp"
#include "order/community_degeneracy.hpp"
#include "order/degeneracy.hpp"
#include "parallel/parallel.hpp"
#include "triangle/communities.hpp"
#include "util/bitkernels.hpp"

namespace perfbench {
namespace {

/// Repetitions of each preparation layer; the reported time is the sum over
/// graphs of each graph's median.
constexpr int kLayerReps = 3;

template <typename F>
double median_of_reps(Tracer& tracer, const std::string& span, F&& f) {
  std::vector<double> s;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    SpanScope scope(tracer, span);
    s.push_back(timed(f));
  }
  return median(s);
}

/// Data sink the optimizer cannot remove.
volatile std::uint64_t g_sink = 0;

/// Median-of-5 nanoseconds per call of `op`, each rep `iters` calls.
template <typename Op>
double ns_per_call(std::size_t iters, const Op& op) {
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t acc = 0;
    const double s = timed([&] {
      for (std::size_t i = 0; i < iters; ++i) acc += op();
    });
    g_sink = acc;
    ns.push_back(s * 1e9 / static_cast<double>(iters));
  }
  return median(ns);
}

}  // namespace

void probe_prepare_layers(const std::vector<NamedGraph>& graphs, Tracer& tracer, Metrics& out) {
  double degeneracy = 0, approx = 0, community = 0, orient = 0, communities = 0, triangles = 0;
  for (const NamedGraph& g : graphs) {
    c3::DegeneracyResult order;
    degeneracy += median_of_reps(tracer, "order.degeneracy", [&] { order = c3::degeneracy_order(g.graph); });
    approx += median_of_reps(tracer, "order.approx_degeneracy",
                             [&] { (void)c3::approx_degeneracy_order(g.graph, 0.5); });
    community += median_of_reps(tracer, "order.community_degeneracy",
                                [&] { (void)c3::community_degeneracy_order(g.graph); });
    c3::Digraph dag;
    orient += median_of_reps(tracer, "orient.build", [&] { dag = c3::Digraph::orient(g.graph, order.order); });
    c3::EdgeCommunities comms;
    communities += median_of_reps(tracer, "communities.build", [&] { comms = c3::EdgeCommunities::build(dag); });
    triangles += static_cast<double>(comms.total_size());
  }
  out.add("order.degeneracy_s", degeneracy, "s");
  out.add("order.approx_degeneracy_s", approx, "s");
  out.add("order.community_degeneracy_s", community, "s");
  out.add("orient.build_s", orient, "s");
  out.add("communities.build_s", communities, "s");
  out.add("communities.triangles", triangles, "count");
}

void probe_search(const std::vector<NamedGraph>& graphs, const std::vector<GridPoint>& grid, Tracer& tracer,
                  Metrics& out, Result& tally) {
  std::vector<c3::count_t> reference(grid.size(), 0);
  for (int a = 0; a < kNumAlgorithms; ++a) {
    const AlgorithmTag& alg = kAlgorithms[a];
    const SpanScope alg_span(tracer, std::string("probe.") + alg.tag);
    c3::CliqueStats sum;
    double search_one = 0.0;
    double prepare_s = 0.0, search_s = 0.0;
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const c3::PreparedGraph engine(graphs[gi].graph, options_for(alg.algorithm));
      {
        SpanScope span(tracer, std::string("prepare.") + alg.tag, alg_span.id());
        prepare_s += timed([&] { engine.prepare(); });
      }
      for (std::size_t p = 0; p < grid.size(); ++p) {
        if (grid[p].graph != static_cast<int>(gi)) continue;
        c3::CliqueResult r;
        {
          SpanScope span(tracer, std::string("search.") + alg.tag, alg_span.id(), p + 1);
          search_s += timed([&] { r = engine.count(grid[p].k); });
        }
        c3::accumulate_stats(sum, r.stats);
        ++tally.attempted;
        if (a == 0) reference[p] = r.count;
        if (r.count != reference[p]) ++tally.failed;
        // Single-worker baseline of the same search.
        const int saved = c3::set_num_workers(1);
        {
          SpanScope span(tracer, std::string("search_1w.") + alg.tag, alg_span.id(), p + 1);
          search_one += timed([&] { r = engine.count(grid[p].k); });
        }
        c3::set_num_workers(saved);
        ++tally.attempted;
        if (r.count != reference[p]) ++tally.failed;
      }
    }
    const std::string t = alg.tag;
    out.add("prepare_s." + t, prepare_s, "s");
    out.add("search_s." + t, search_s, "s");
    out.add("top_level_tasks." + t, static_cast<double>(sum.top_level_tasks), "count");
    out.add("recursive_calls." + t, static_cast<double>(sum.recursive_calls), "count");
    out.add("pairs_probed." + t, static_cast<double>(sum.pairs_probed), "count");
    out.add("edges_matched." + t, static_cast<double>(sum.edges_matched), "count");
    out.add("pair_hit_ratio." + t,
            sum.pairs_probed > 0 ? static_cast<double>(sum.edges_matched) / static_cast<double>(sum.pairs_probed) : 0.0,
            "ratio");
    out.add("intersection_words." + t, static_cast<double>(sum.intersection_words), "count");
    out.add("leaf_work." + t, static_cast<double>(sum.leaf_work), "count");
    // Only the vertex-growth baselines route subproblems to the dense path.
    if (alg.algorithm == c3::Algorithm::ArbCount || alg.algorithm == c3::Algorithm::KCList) {
      out.add("dense_subproblems." + t, static_cast<double>(sum.dense_subproblems), "count");
    }
    out.add("parallel.speedup." + t, search_s > 0 ? search_one / search_s : 0.0, "ratio");
  }
}

void probe_kernels(Metrics& out) {
  // The rows of a ~300-vertex community, as a dense block of the graph
  // yields: five words, past the inline <= 4-word path, so every call
  // dispatches.
  constexpr std::size_t kBits = 300;
  const std::size_t words = c3::bits::kernel_stride_words(kBits);
  c3::bits::KernelWords a(words), b(words), mask(words), dst(words);
  Rng rng(0xBEEF);
  for (std::size_t w = 0; w < words; ++w) {
    a[w] = rng.next();
    b[w] = rng.next();
    mask[w] = rng.next() | rng.next();
  }
  constexpr std::size_t kIters = 400'000;
  const struct {
    const char* name;
    c3::bits::KernelBackend backend;
  } sides[] = {{"host", c3::bits::active_kernel_backend()}, {"scalar", c3::bits::KernelBackend::Scalar}};
  for (const auto& side : sides) {
    const c3::bits::KernelTable* table = c3::bits::kernel_table(side.backend);
    out.add(std::string("kernel.intersect_interval_ns.") + side.name, ns_per_call(kIters, [&] {
              return table->intersect_interval(a.data(), b.data(), mask.data(), dst.data(), words, 3, kBits - 2);
            }),
            "ns");
    out.add(std::string("kernel.popcount_and_ns.") + side.name,
            ns_per_call(kIters, [&] { return table->popcount_and(a.data(), b.data(), words); }), "ns");
  }
  // Computed traffic per call: three rows read and one written for the
  // fused intersect, two rows read for the masked popcount.
  out.add("kernel.bytes_per_op.intersect_interval", static_cast<double>(words * 8 * 4), "bytes");
  out.add("kernel.bytes_per_op.popcount_and", static_cast<double>(words * 8 * 2), "bytes");
}

void probe_batch(const std::vector<BatchWork>& work, Tracer& tracer, Metrics& out, Result& tally) {
  double sequential = 0.0, batched = 0.0;
  for (const BatchWork& w : work) {
    std::vector<c3::Answer> expected;
    {
      SpanScope span(tracer, "batch.sequential");
      sequential += timed([&] {
        for (const c3::Query& q : w.queries) expected.push_back(w.engine->run(q));
      });
    }
    c3::QueryBatch batch(*w.engine);
    for (const c3::Query& q : w.queries) batch.add(q);
    std::vector<c3::Answer> answers;
    {
      SpanScope span(tracer, "batch.run");
      batched += timed([&] { answers = batch.answers(); });
    }
    for (std::size_t i = 0; i < answers.size(); ++i) {
      ++tally.attempted;
      if (c3::format_answer(answers[i]) != c3::format_answer(expected[i])) ++tally.failed;
    }
  }
  out.add("batch.speedup", batched > 0 ? sequential / batched : 0.0, "ratio");
}

}  // namespace perfbench
