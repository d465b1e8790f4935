// Empirical validation of Table 1: the measured work of each algorithm
// variant, swept over k, against the analytic growth terms of Theorem 2.1
// and Theorem 4.3.
//
// Work is measured with the instrumented counters (candidate pairs probed +
// intersection words + leaf work — the three cost components of the
// analysis, Lemmas 2.3 / A.1 / A.2) of a listing run with a no-op callback:
// listing walks Algorithm 2's whole search tree, the walk the theorems bound,
// while a count takes complete candidate sets in closed form and skips their
// subtrees (DESIGN.md, "Counting closed form"). For each variant the table prints
// measured work W(k) and the ratio W(k) / bound(k) with
// bound(k) = m * ((gamma + 4 - k)/2)^(k-2): if the theorem holds, the ratio
// stays bounded as k grows (the bound may be loose, so ratios well below 1
// are expected — what must NOT happen is unbounded growth).
#include <cstdio>

#include "c3list.hpp"
#include "datasets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace c3;

const CliqueCallback walk_only = [](std::span<const node_t>) { return true; };

count_t measured_work(const CliqueStats& s) {
  return s.pairs_probed + s.intersection_words + s.leaf_work;
}

void sweep(const char* variant, const Graph& g, const CliqueOptions& opts, int kmin, int kmax,
           Table& table, bool cd_bound) {
  for (int k = kmin; k <= kmax; ++k) {
    const CliqueResult r = list_cliques(g, k, walk_only, opts);
    const double gamma = static_cast<double>(r.stats.gamma);
    const double bound = static_cast<double>(g.num_edges()) * static_cast<double>(k) *
                         theorem21_growth(gamma, k);
    const count_t work = measured_work(r.stats);
    table.add_row({variant, std::to_string(k), std::to_string(r.stats.gamma),
                   with_commas(work), strfmt("%.3g", bound),
                   bound > 0 ? strfmt("%.2e", static_cast<double>(work) / bound) : "-",
                   with_commas(r.count)});
    (void)cd_bound;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const c3::CommandLine cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0);
  const int kmin = static_cast<int>(cli.get_int("kmin", 6));
  const int kmax = static_cast<int>(cli.get_int("kmax", 10));

  std::printf("# Table 1 — empirical work-bound validation\n");
  std::printf("# measured = pairs probed + intersection words + leaf work (the cost terms of\n");
  std::printf("# the analysis) of a listing walk; bound = k*m*((gamma+4-k)/2)^(k-2) per\n");
  std::printf("# Theorem 2.1/4.3.\n");
  std::printf("# Theorem holds  <=>  ratio = measured/bound stays bounded as k grows.\n\n");

  const c3::bench::Dataset ds = c3::bench::bio_sc_ht_like(scale);
  std::printf("## dataset: %s stand-in\n\n", ds.name.c_str());

  c3::Table table({"variant", "k", "gamma", "measured work", "bound", "ratio", "#cliques"});

  CliqueOptions best_work;  // Table 1 "Best Work": exact degeneracy order
  best_work.vertex_order = VertexOrderKind::ExactDegeneracy;
  sweep("c3 best-work (exact s-order)", ds.graph, best_work, kmin, kmax, table, false);

  CliqueOptions best_depth;  // Table 1 "Best Depth": (2+eps)-approx order
  best_depth.vertex_order = VertexOrderKind::ApproxDegeneracy;
  sweep("c3 best-depth ((2+eps)-order)", ds.graph, best_depth, kmin, kmax, table, false);

  CliqueOptions hybrid;  // Table 1 "Hybrid"
  hybrid.algorithm = Algorithm::Hybrid;
  sweep("c3 hybrid (Sec 4.2)", ds.graph, hybrid, kmin, kmax, table, false);

  CliqueOptions cd_exact;  // Table 1 community-degeneracy "Best Work"
  cd_exact.algorithm = Algorithm::C3ListCD;
  cd_exact.edge_order = EdgeOrderKind::ExactCommunityDegeneracy;
  sweep("cd best-work (exact sigma-order)", ds.graph, cd_exact, kmin, kmax, table, true);

  CliqueOptions cd_approx;  // Table 1 community-degeneracy "Best Depth"
  cd_approx.algorithm = Algorithm::C3ListCD;
  cd_approx.edge_order = EdgeOrderKind::ApproxCommunityDegeneracy;
  sweep("cd best-depth (Algorithm 4)", ds.graph, cd_approx, kmin, kmax, table, true);

  table.print();

  std::printf("\n# Depth side of Table 1 (preprocessing rounds, the depth-determining terms):\n");
  const auto exact_deg = c3::degeneracy_order(ds.graph);
  const auto approx_deg = c3::approx_degeneracy_order(ds.graph, 0.5);
  const auto cd_approx_order = c3::approx_community_degeneracy_order(ds.graph, 0.5);
  std::printf("#   exact degeneracy order:    n = %u sequential steps (O(n) depth)\n",
              ds.graph.num_nodes());
  std::printf("#   approx degeneracy order:   %u peeling rounds (O(log^2 n) depth), quality %u vs s=%u\n",
              approx_deg.rounds, approx_deg.max_out_degree, exact_deg.degeneracy);
  std::printf("#   approx community order:    %u peeling rounds (Algorithm 4), max|V'|=%u vs sigma\n",
              cd_approx_order.rounds, cd_approx_order.sigma);
  return 0;
}
