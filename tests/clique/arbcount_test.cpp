// Tests for the ArbCount baseline (Shi et al.).
#include "clique/arbcount.hpp"

#include <gtest/gtest.h>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/combinatorics.hpp"
#include "graph/gen/generators.hpp"
#include "test_helpers.hpp"

namespace c3 {
namespace {

/// `o` with the algorithm under test selected.
CliqueOptions arbcount_opts(CliqueOptions o = {}) {
  o.algorithm = Algorithm::ArbCount;
  return o;
}

TEST(ArbCount, CompleteGraphClosedForm) {
  const Graph g = complete_graph(11);
  for (int k = 3; k <= 11; ++k) {
    EXPECT_EQ(count_cliques(g, k, arbcount_opts()).count, binomial(11, k)) << "k=" << k;
  }
}

TEST(ArbCount, MatchesBruteForce) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = erdos_renyi(45, 330, seed);
    for (int k = 3; k <= 7; ++k) {
      EXPECT_EQ(count_cliques(g, k, arbcount_opts()).count, brute_force_count(g, k))
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(ArbCount, DefaultsToApproxOrderButAgreesWithExact) {
  const Graph g = social_like(250, 1800, 0.4, 41);
  CliqueOptions exact;
  exact.vertex_order = VertexOrderKind::ExactDegeneracy;
  for (int k = 4; k <= 6; ++k) {
    const CliqueResult def = count_cliques(g, k, arbcount_opts());
    const CliqueResult ex = count_cliques(g, k, arbcount_opts(exact));
    EXPECT_EQ(def.count, ex.count) << "k=" << k;
    // The approximate order may not beat the exact one but must respect the
    // (2+eps) guarantee relative to it.
    EXPECT_LE(def.stats.order_quality,
              static_cast<node_t>(2.5 * static_cast<double>(ex.stats.order_quality)) + 1);
  }
}

TEST(ArbCount, ListingMatchesCountingAndIsValid) {
  const Graph g = erdos_renyi(50, 380, 43);
  for (int k = 3; k <= 6; ++k) {
    const count_t expect = brute_force_count(g, k);
    testing::CliqueCollector collector(g, k);
    const CliqueResult r = list_cliques(g, k, collector.callback(), arbcount_opts());
    EXPECT_EQ(r.count, expect) << "k=" << k;
    collector.expect_valid(expect);
  }
}

TEST(ArbCount, LargeLocalUniverseCrossesWordBoundaries) {
  // Force out-neighborhoods above 64/128 vertices to cover multi-word masks.
  const Graph g = complete_graph(140);
  EXPECT_EQ(count_cliques(g, 4, arbcount_opts()).count, binomial(140, 4));
}

TEST(ArbCount, TrivialSizesAndEmpty) {
  const Graph g = erdos_renyi(40, 100, 47);
  EXPECT_EQ(count_cliques(g, 1, arbcount_opts()).count, 40u);
  EXPECT_EQ(count_cliques(g, 2, arbcount_opts()).count, 100u);
  EXPECT_EQ(count_cliques(Graph{}, 5, arbcount_opts()).count, 0u);
  EXPECT_EQ(count_cliques(grid_graph(8, 8), 3, arbcount_opts()).count, 0u);
}

}  // namespace
}  // namespace c3
