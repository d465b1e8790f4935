// paper_sweep: one-shot count_cliques (prepare + search, the paper's "Total
// Runtime") for the four algorithms over the (graph, k) grid of Figures 7-9,
// repeated in passes until the run's time is up.
#include <array>
#include <string>
#include <vector>

#include "bench.hpp"
#include "clique/api.hpp"
#include "expected.hpp"
#include "graph/builder.hpp"
#include "inputs.hpp"
#include "parallel/parallel.hpp"

namespace perfbench {
namespace {

/// Set-ups per run (build_graph over every edge list, ~13 ms); setup_s is
/// the median.
constexpr int kSetups = 41;

/// The stand-ins and the grid k = 6..10 on each.
struct Sweep {
  std::vector<EdgeInput> inputs;
  std::vector<GridPoint> grid;
};

Sweep make_sweep(const Args& args) {
  const Rng rng(args.seed);
  Sweep s;
  s.inputs = {dblp_like(kSweepScale, rng.fork(1)), chebyshev_like(kSweepScale, rng.fork(2)),
              jester_like(kSweepScale, rng.fork(3)), orkut_like(kSweepScale, rng.fork(4))};
  for (int g = 0; g < 4; ++g) {
    for (int k = 6; k <= 10; ++k) s.grid.push_back({g, k});
  }
  return s;
}

/// Per-algorithm seconds of one pass: the one-shot queries, and (traced
/// passes only) the part of them their prepare and search spans cover.
struct PassResult {
  std::array<double, kNumAlgorithms> seconds{};
  std::array<double, kNumAlgorithms> covered{};
  std::vector<double> query_ms;
};

/// One one-shot query. Untraced, it is the public count_cliques. Traced, it
/// is count_cliques' own body — a fresh engine, prepared, then counted — so
/// spans can separate preparation from search.
c3::CliqueResult one_shot(const c3::Graph& g, int k, c3::Algorithm algorithm, Tracer& tracer,
                          std::size_t parent, std::uint64_t request, double& covered) {
  const c3::CliqueOptions opts = options_for(algorithm);
  if (!tracer.enabled()) return c3::count_cliques(g, k, opts);
  const c3::PreparedGraph engine(g, opts);
  {
    SpanScope span(tracer, "prepare", parent, request);
    covered += timed([&] { engine.prepare(); });
  }
  c3::CliqueResult r;
  SpanScope span(tracer, "search", parent, request);
  covered += timed([&] { r = engine.count(k); });
  return r;
}

/// One pass over the grid, rotating which algorithm goes first so none
/// always runs on a cold cache. The first pass records each grid point's
/// count; later answers, from every algorithm, must match it.
PassResult run_pass(const std::vector<NamedGraph>& graphs, const std::vector<GridPoint>& grid, int pass,
                    std::vector<c3::count_t>& counts, Tracer& tracer, Result& tally) {
  PassResult out;
  const SpanScope pass_span(tracer, "pass");
  for (std::size_t p = 0; p < grid.size(); ++p) {
    const GridPoint& point = grid[p];
    for (int i = 0; i < kNumAlgorithms; ++i) {
      const int a = (i + pass) % kNumAlgorithms;
      c3::CliqueResult r;
      double q = 0.0;
      {
        const SpanScope span(tracer, std::string("count_cliques.") + kAlgorithms[a].tag, pass_span.id(), p + 1);
        q = timed([&] {
          r = one_shot(graphs[point.graph].graph, point.k, kAlgorithms[a].algorithm, tracer, span.id(), p + 1,
                       out.covered[a]);
        });
      }
      out.seconds[a] += q;
      out.query_ms.push_back(q * 1e3);
      ++tally.attempted;
      if (counts[p] == 0) counts[p] = r.count;
      if (r.count != counts[p]) {
        std::fprintf(stderr, "perfbench: %s k=%d: %s counted %llu, expected %llu\n",
                     graphs[point.graph].name.c_str(), point.k, kAlgorithms[a].tag,
                     static_cast<unsigned long long>(r.count), static_cast<unsigned long long>(counts[p]));
        ++tally.failed;
      }
    }
  }
  return out;
}

/// Compares the counts of the default seed with the pinned ones.
void check_pinned(const Args& args, const Sweep& s, const std::vector<c3::count_t>& counts,
                  Result& tally) {
  if (args.seed != kDefaultSeed) return;
  for (std::size_t p = 0; p < s.grid.size(); ++p) {
    const std::string& graph = s.inputs[s.grid[p].graph].name;
    const c3::count_t pinned = pinned_count(graph, s.grid[p].k);
    ++tally.attempted;
    if (pinned != counts[p]) {
      std::fprintf(stderr, "perfbench: %s k=%d counted %llu, pinned %llu\n", graph.c_str(),
                   s.grid[p].k, static_cast<unsigned long long>(counts[p]),
                   static_cast<unsigned long long>(pinned));
      ++tally.failed;
    }
  }
}

}  // namespace

Result run_sweep(const Args& args) {
  c3::set_num_workers(kWorkers);
  Result result;
  Metrics& m = result.metrics;
  Tracer tracer(args.trace);
  Tracer quiet(false);
  const Sweep s = make_sweep(args);

  std::vector<double> setups;
  std::vector<NamedGraph> graphs;
  for (int rep = 0; rep < kSetups; ++rep) {
    graphs.clear();
    setups.push_back(timed([&] {
      for (const EdgeInput& in : s.inputs) graphs.push_back({in.name, c3::build_graph(in.edges, in.num_nodes)});
    }));
  }

  std::vector<c3::count_t> counts(s.grid.size(), 0);
  if (!args.trace) {
    // Passes until the time is up; a pass starts only if a typical pass
    // still fits.
    std::vector<PassResult> passes;
    const auto t0 = Clock::now();
    double last = 0.0;
    while (passes.empty() || seconds_since(t0) + last <= args.seconds) {
      last = timed([&] {
        passes.push_back(run_pass(graphs, s.grid, static_cast<int>(passes.size()), counts, quiet, result));
      });
    }
    const double elapsed = seconds_since(t0);
    check_pinned(args, s, counts, result);
    std::vector<double> ms;
    for (const PassResult& p : passes) ms.insert(ms.end(), p.query_ms.begin(), p.query_ms.end());
    m.add("setup_s", median(setups), "s");
    for (int a = 0; a < kNumAlgorithms; ++a) {
      std::vector<double> totals;
      for (const PassResult& p : passes) totals.push_back(p.seconds[a]);
      m.add(std::string("total_s.") + kAlgorithms[a].tag, median(totals), "s");
    }
    m.add("latency_p50_ms", quantile(ms, 0.5), "ms");
    m.add("latency_p95_ms", quantile(ms, 0.95), "ms");
    m.add("throughput_qps", static_cast<double>(ms.size()) / elapsed, "1/s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  // Traced run: one untraced and one traced pass for the tracing overhead,
  // then the layer probes on the same graphs.
  m.add("graph.build_s", median(setups), "s");
  const double untraced = timed([&] { (void)run_pass(graphs, s.grid, 0, counts, quiet, result); });
  PassResult traced_pass;
  const double traced = timed([&] { traced_pass = run_pass(graphs, s.grid, 1, counts, tracer, result); });
  check_pinned(args, s, counts, result);
  m.add("trace.overhead_ratio", traced / untraced - 1.0, "ratio");
  // Share of each algorithm's one-shot seconds that its prepare and search
  // spans cover; the rest is engine construction and teardown.
  for (int a = 0; a < kNumAlgorithms; ++a) {
    const double base = traced_pass.seconds[a];
    m.add(std::string("coverage.") + kAlgorithms[a].tag, traced_pass.covered[a] / base, "ratio");
    m.add(std::string("coverage_base_s.") + kAlgorithms[a].tag, base, "s");
  }

  probe_prepare_layers(graphs, tracer, m);
  probe_search(graphs, s.grid, tracer, m, result);
  probe_kernels(m);
  probe_serving(graphs, s.grid, tracer, m, result);

  std::vector<c3::PreparedGraph> engines;
  engines.reserve(graphs.size());
  for (const NamedGraph& g : graphs) engines.emplace_back(g.graph, options_for(c3::Algorithm::C3List));
  std::vector<BatchWork> work(graphs.size());
  for (const GridPoint& p : s.grid) {
    work[p.graph].engine = &engines[p.graph];
    work[p.graph].queries.push_back(c3::Query{c3::QueryKind::Count, p.k, 0, {}});
  }
  probe_batch(work, tracer, m, result);
  tracer.write(std::string(kOutDir) + "/trace_" + args.workload + ".json");
  return result;
}

}  // namespace perfbench
