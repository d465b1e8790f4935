// Tests for the ordering heuristics (Degree / Random / ById) beyond the
// degeneracy orders — correctness is order-independent, quality is not.
#include <gtest/gtest.h>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "graph/gen/generators.hpp"

namespace c3 {
namespace {

const VertexOrderKind kAllOrders[] = {VertexOrderKind::ExactDegeneracy,
                                      VertexOrderKind::ApproxDegeneracy, VertexOrderKind::Degree,
                                      VertexOrderKind::Random, VertexOrderKind::ById};

TEST(OrderingHeuristics, AllOrdersGiveIdenticalCounts) {
  const Graph g = social_like(150, 1100, 0.45, 77);
  for (int k = 3; k <= 6; ++k) {
    const count_t expect = brute_force_count(g, k);
    for (const VertexOrderKind order : kAllOrders) {
      for (const Algorithm alg : {Algorithm::C3List, Algorithm::KCList, Algorithm::ArbCount}) {
        CliqueOptions opts;
        opts.algorithm = alg;
        opts.vertex_order = order;
        EXPECT_EQ(count_cliques(g, k, opts).count, expect)
            << algorithm_name(alg) << " order " << static_cast<int>(order) << " k=" << k;
      }
    }
  }
}

TEST(OrderingHeuristics, DegeneracyOrderMinimizesOutDegreeOnSkewedGraphs) {
  // The degeneracy order's max out-degree (= s) lower-bounds every total
  // order's quality; the degree heuristic lands close on skewed graphs and
  // random/id orders degrade badly on hubs.
  const Graph g = chung_lu(2000, 14'000, 0.75, 5);
  auto quality = [&](VertexOrderKind order) {
    CliqueOptions opts;
    opts.vertex_order = order;
    return count_cliques(g, 4, opts).stats.order_quality;
  };
  const node_t exact = quality(VertexOrderKind::ExactDegeneracy);
  EXPECT_LE(exact, quality(VertexOrderKind::Degree));
  EXPECT_LE(exact, quality(VertexOrderKind::ApproxDegeneracy));
  EXPECT_LE(exact, quality(VertexOrderKind::Random));
  EXPECT_LT(exact, quality(VertexOrderKind::ById));  // hubs hurt id order
}

TEST(OrderingHeuristics, RandomOrderSeedIsDeterministic) {
  const Graph g = erdos_renyi(100, 600, 13);
  CliqueOptions a, b, c;
  a.vertex_order = b.vertex_order = c.vertex_order = VertexOrderKind::Random;
  a.order_seed = b.order_seed = 42;
  c.order_seed = 43;
  // A listing walks Algorithm 2's pairs; a count pivots and probes none.
  const CliqueCallback walk_only = [](std::span<const node_t>) { return true; };
  const CliqueResult ra = list_cliques(g, 5, walk_only, a);
  const CliqueResult rb = list_cliques(g, 5, walk_only, b);
  const CliqueResult rc = list_cliques(g, 5, walk_only, c);
  EXPECT_EQ(ra.count, rb.count);
  EXPECT_EQ(ra.count, rc.count);
  EXPECT_EQ(ra.count, count_cliques(g, 5, a).count);
  // Same seed -> identical instrumented traversal; different seed -> almost
  // surely a different probe count on a graph this size.
  EXPECT_EQ(ra.stats.pairs_probed, rb.stats.pairs_probed);
  EXPECT_NE(ra.stats.pairs_probed, rc.stats.pairs_probed);
}

TEST(OrderingHeuristics, DegreeOrderOnStar) {
  // Degree order must peel leaves before the hub, giving out-degree 1 —
  // identical to the degeneracy order on a star.
  const Graph g = star_graph(64);
  CliqueOptions opts;
  opts.vertex_order = VertexOrderKind::Degree;
  EXPECT_EQ(count_cliques(g, 2, opts).count, 63u);
  EXPECT_EQ(count_cliques(g, 3, opts).count, 0u);
}

}  // namespace
}  // namespace c3
