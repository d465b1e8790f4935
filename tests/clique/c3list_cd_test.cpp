// Tests for Algorithm 3 (community-degeneracy parameterized listing).
#include "clique/c3list_cd.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/combinatorics.hpp"
#include "clique/engine.hpp"
#include "graph/gen/generators.hpp"
#include "test_helpers.hpp"

namespace c3 {
namespace {

CliqueOptions exact_opts() {
  CliqueOptions o;
  o.algorithm = Algorithm::C3ListCD;
  o.edge_order = EdgeOrderKind::ExactCommunityDegeneracy;
  return o;
}

CliqueOptions approx_opts() {
  CliqueOptions o;
  o.algorithm = Algorithm::C3ListCD;
  o.edge_order = EdgeOrderKind::ApproxCommunityDegeneracy;
  return o;
}

TEST(C3ListCD, CompleteGraphClosedForm) {
  const Graph g = complete_graph(11);
  for (int k = 3; k <= 11; ++k) {
    EXPECT_EQ(count_cliques(g, k, exact_opts()).count, binomial(11, k)) << "k=" << k;
    EXPECT_EQ(count_cliques(g, k, approx_opts()).count, binomial(11, k)) << "k=" << k;
  }
}

TEST(C3ListCD, MatchesBruteForceBothOrders) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = erdos_renyi(45, 330, seed);
    for (int k = 3; k <= 7; ++k) {
      const count_t expect = brute_force_count(g, k);
      EXPECT_EQ(count_cliques(g, k, exact_opts()).count, expect)
          << "exact seed " << seed << " k " << k;
      EXPECT_EQ(count_cliques(g, k, approx_opts()).count, expect)
          << "approx seed " << seed << " k " << k;
    }
  }
}

TEST(C3ListCD, CandidateSetsBoundedBySigma) {
  const Graph g = bio_like(300, 1200, 10, 14, 0.5, 4);
  const CliqueResult r = count_cliques(g, 5, exact_opts());
  // Theorem 4.3: gamma here is bounded by the exact sigma.
  EXPECT_LE(r.stats.gamma, r.stats.order_quality);
}

TEST(C3ListCD, TrivialAndEdgeCases) {
  const Graph g = erdos_renyi(50, 150, 9);
  EXPECT_EQ(count_cliques(g, 1, exact_opts()).count, 50u);
  EXPECT_EQ(count_cliques(g, 2, exact_opts()).count, 150u);
  EXPECT_EQ(count_cliques(Graph{}, 4, exact_opts()).count, 0u);
  EXPECT_EQ(count_cliques(hypercube(5), 3, exact_opts()).count, 0u);
}

TEST(C3ListCD, K3EqualsTriangles) {
  const Graph g = social_like(300, 2000, 0.4, 5);
  EXPECT_EQ(count_cliques(g, 3, exact_opts()).count, brute_force_count(g, 3));
  EXPECT_EQ(count_cliques(g, 3, approx_opts()).count, brute_force_count(g, 3));
}

TEST(C3ListCD, ListingMatchesCountingAndIsValid) {
  const Graph g = erdos_renyi(50, 380, 11);
  for (int k = 3; k <= 6; ++k) {
    const count_t expect = brute_force_count(g, k);
    for (const auto& opts : {exact_opts(), approx_opts()}) {
      testing::CliqueCollector collector(g, k);
      const CliqueResult r = list_cliques(g, k, collector.callback(), opts);
      EXPECT_EQ(r.count, expect) << "k=" << k;
      collector.expect_valid(expect);
    }
  }
}

TEST(C3ListCD, SharedCliquesAcrossManyEdgesCountedOnce) {
  // Overlapping cliques stress the "lowest edge owns the clique" rule.
  const Graph g = collaboration_like(120, 80, 10, 13);
  for (int k = 4; k <= 6; ++k) {
    EXPECT_EQ(count_cliques(g, k, exact_opts()).count, brute_force_count(g, k)) << "k=" << k;
  }
}

TEST(C3ListCD, PrecomputedOrderReuse) {
  const Graph g = erdos_renyi(40, 250, 17);
  const EdgeOrderResult order = community_degeneracy_order(g);
  PreparedArtifacts loaded;
  loaded.edge_order = order;
  const PreparedGraph engine(g, exact_opts(), std::move(loaded));
  for (int k = 3; k <= 6; ++k) {
    EXPECT_EQ(engine.count(k).count, brute_force_count(g, k));
  }
  EXPECT_EQ(engine.prepare_seconds(), 0.0) << "the installed order must not be rebuilt";
}

}  // namespace
}  // namespace c3
