// Tests for the triangle-growth generalization (the paper's conclusion:
// "extend the cliques by larger motifs such as triangles").
#include <gtest/gtest.h>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/combinatorics.hpp"
#include "graph/gen/generators.hpp"
#include "test_helpers.hpp"

namespace c3 {
namespace {

CliqueOptions tri_opts(Algorithm alg) {
  CliqueOptions o;
  o.algorithm = alg;
  o.triangle_growth = true;
  return o;
}

TEST(TriangleGrowth, CompleteGraphClosedFormAllVariants) {
  const Graph g = complete_graph(13);
  for (const Algorithm alg : {Algorithm::C3List, Algorithm::C3ListCD, Algorithm::Hybrid}) {
    for (int k = 4; k <= 13; ++k) {
      EXPECT_EQ(count_cliques(g, k, tri_opts(alg)).count, binomial(13, static_cast<count_t>(k)))
          << algorithm_name(alg) << " k=" << k;
    }
  }
}

TEST(TriangleGrowth, MatchesBruteForceAcrossParities) {
  // k-2 mod 3 hits all residues: the recursion mixes triangle steps with the
  // pair/vertex base cases.
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = erdos_renyi(45, 330, seed);
    for (int k = 4; k <= 9; ++k) {
      EXPECT_EQ(count_cliques(g, k, tri_opts(Algorithm::C3List)).count, brute_force_count(g, k))
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(TriangleGrowth, AgreesWithEdgeGrowthOnDenseBlocks) {
  const Graph g = bio_like(300, 1500, 12, 16, 0.6, 7);
  for (int k = 4; k <= 8; ++k) {
    CliqueOptions edge_growth;
    EXPECT_EQ(count_cliques(g, k, tri_opts(Algorithm::C3List)).count,
              count_cliques(g, k, edge_growth).count)
        << "k=" << k;
  }
}

TEST(TriangleGrowth, ListingIsValidAndComplete) {
  const Graph g = erdos_renyi(50, 380, 5);
  for (int k = 4; k <= 7; ++k) {
    const count_t expect = brute_force_count(g, k);
    testing::CliqueCollector collector(g, k);
    const CliqueResult r = list_cliques(g, k, collector.callback(), tri_opts(Algorithm::C3List));
    EXPECT_EQ(r.count, expect) << "k=" << k;
    collector.expect_valid(expect);
  }
}

TEST(TriangleGrowth, DeepSearchAgreement) {
  // A deep search (k = 14 in K24) exercises many triangle levels; both
  // growth schemes must agree exactly. (The triangle variant trades fewer
  // *levels* — depth ~c/3 vs ~c/2 — for more children per node, so call
  // counts are not comparable, only correctness is asserted.)
  const Graph g = complete_graph(24);
  CliqueOptions edge_growth;
  const CliqueResult edge = count_cliques(g, 14, edge_growth);
  const CliqueResult tri = count_cliques(g, 14, tri_opts(Algorithm::C3List));
  EXPECT_EQ(edge.count, tri.count);
  EXPECT_EQ(tri.count, binomial(24, 14));
  EXPECT_GT(tri.stats.recursive_calls, 0u);
}

TEST(TriangleGrowth, PruningAblationStillCorrect) {
  // The criterion shapes only the walk, so the ablation lists: counts pivot.
  const Graph g = social_like(150, 1100, 0.45, 9);
  for (int k = 5; k <= 7; ++k) {
    CliqueOptions o = tri_opts(Algorithm::C3List);
    o.distance_pruning = false;
    const CliqueResult r = list_cliques(g, k, [](std::span<const node_t>) { return true; }, o);
    EXPECT_EQ(r.count, brute_force_count(g, k)) << "k=" << k;
  }
}

}  // namespace
}  // namespace c3
