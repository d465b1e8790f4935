// Tests for the core community-centric algorithm (Algorithms 1 + 2).
#include "clique/c3list.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/combinatorics.hpp"
#include "graph/gen/generators.hpp"
#include "test_helpers.hpp"

namespace c3 {
namespace {

TEST(C3List, CompleteGraphClosedForm) {
  const Graph g = complete_graph(12);
  for (int k = 3; k <= 12; ++k) {
    EXPECT_EQ(count_cliques(g, k).count, binomial(12, k)) << "k=" << k;
  }
  EXPECT_EQ(count_cliques(g, 13).count, 0u);
}

TEST(C3List, TrivialSizes) {
  const Graph g = erdos_renyi(100, 300, 1);
  EXPECT_EQ(count_cliques(g, 0).count, 0u);
  EXPECT_EQ(count_cliques(g, -3).count, 0u);
  EXPECT_EQ(count_cliques(g, 1).count, 100u);
  EXPECT_EQ(count_cliques(g, 2).count, 300u);
}

TEST(C3List, TriangleCountMatchesK3) {
  const Graph g = social_like(400, 3000, 0.4, 2);
  EXPECT_EQ(count_cliques(g, 3).count, brute_force_count(g, 3));
}

TEST(C3List, MatchesBruteForceAcrossSeedsAndK) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = erdos_renyi(45, 330, seed);  // dense enough for 6-cliques
    for (int k = 3; k <= 7; ++k) {
      EXPECT_EQ(count_cliques(g, k).count, brute_force_count(g, k))
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(C3List, AllVertexOrdersAgree) {
  const Graph g = erdos_renyi(60, 500, 4);
  for (int k = 4; k <= 6; ++k) {
    CliqueOptions exact, approx, byid;
    exact.vertex_order = VertexOrderKind::ExactDegeneracy;
    approx.vertex_order = VertexOrderKind::ApproxDegeneracy;
    byid.vertex_order = VertexOrderKind::ById;
    const count_t a = count_cliques(g, k, exact).count;
    EXPECT_EQ(a, count_cliques(g, k, approx).count) << "k=" << k;
    EXPECT_EQ(a, count_cliques(g, k, byid).count) << "k=" << k;
  }
}

TEST(C3List, PruningAblationPreservesCounts) {
  const Graph g = social_like(200, 1500, 0.4, 6);
  for (int k = 4; k <= 6; ++k) {
    CliqueOptions with, without;
    with.distance_pruning = true;
    without.distance_pruning = false;
    CliqueResult rw = count_cliques(g, k, with);
    CliqueResult ro = count_cliques(g, k, without);
    EXPECT_EQ(rw.count, ro.count) << "k=" << k;
    // The pruned run must probe at most as many pairs.
    EXPECT_LE(rw.stats.pairs_probed, ro.stats.pairs_probed) << "k=" << k;
  }
}

TEST(C3List, PruningActuallyPrunesOnLargeK) {
  // For k close to gamma the distance criterion rejects most pairs.
  const Graph g = complete_graph(16);
  CliqueOptions with, without;
  with.distance_pruning = true;
  without.distance_pruning = false;
  const CliqueResult rw = count_cliques(g, 14, with);
  const CliqueResult ro = count_cliques(g, 14, without);
  EXPECT_EQ(rw.count, ro.count);
  EXPECT_LT(rw.stats.pairs_probed, ro.stats.pairs_probed / 2);
}

TEST(C3List, ListingMatchesCountingAndIsValid) {
  const Graph g = erdos_renyi(50, 380, 8);
  for (int k = 3; k <= 6; ++k) {
    const count_t expect = count_cliques(g, k).count;
    testing::CliqueCollector collector(g, k);
    const CliqueResult r = list_cliques(g, k, collector.callback());
    EXPECT_EQ(r.count, expect);
    collector.expect_valid(expect);
  }
}

TEST(C3List, ListingEarlyExitStops) {
  const Graph g = complete_graph(14);  // plenty of 5-cliques
  std::atomic<int> calls{0};
  const CliqueCallback stop_after_three = [&](std::span<const node_t>) {
    return calls.fetch_add(1) + 1 < 3;
  };
  (void)list_cliques(g, 5, stop_after_three);
  // At least 3 (the stop request), far fewer than the full count.
  EXPECT_GE(calls.load(), 3);
  EXPECT_LT(static_cast<count_t>(calls.load()), binomial(14, 5) / 2);
}

TEST(C3List, StatsAreCoherent) {
  const Graph g = social_like(300, 2200, 0.4, 3);
  const CliqueResult r = count_cliques(g, 5);
  EXPECT_EQ(r.stats.cliques, r.count);
  EXPECT_GE(r.stats.pairs_probed, r.stats.edges_matched);
  EXPECT_GT(r.stats.recursive_calls, 0u);
  EXPECT_GT(r.stats.gamma, 0u);
  // gamma <= max out-degree - 1 <= s - 1 under the exact degeneracy order.
  EXPECT_LT(r.stats.gamma, r.stats.order_quality + 1);
}

TEST(C3List, KAboveOmegaGivesZero) {
  const Graph g = turan_graph(20, 4);  // omega = 4
  EXPECT_GT(count_cliques(g, 4).count, 0u);
  EXPECT_EQ(count_cliques(g, 5).count, 0u);
  EXPECT_EQ(count_cliques(g, 10).count, 0u);
}

TEST(C3List, HandlesTriangleFreeGraphs) {
  EXPECT_EQ(count_cliques(hypercube(6), 3).count, 0u);
  EXPECT_EQ(count_cliques(hypercube(6), 4).count, 0u);
  EXPECT_EQ(count_cliques(grid_graph(10, 10), 3).count, 0u);
}

TEST(C3List, EmptyAndTinyGraphs) {
  EXPECT_EQ(count_cliques(Graph{}, 4).count, 0u);
  EXPECT_EQ(count_cliques(complete_graph(3), 4).count, 0u);
  EXPECT_EQ(count_cliques(complete_graph(4), 4).count, 1u);
  EXPECT_EQ(count_cliques(complete_graph(5), 4).count, 5u);
}

}  // namespace
}  // namespace c3
