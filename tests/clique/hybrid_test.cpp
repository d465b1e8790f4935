// Tests for the Section 4.2 hybrid scheme.
#include "clique/hybrid.hpp"

#include <gtest/gtest.h>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/combinatorics.hpp"
#include "graph/gen/generators.hpp"
#include "test_helpers.hpp"

namespace c3 {
namespace {

/// `o` with the algorithm under test selected.
CliqueOptions hybrid_opts(CliqueOptions o = {}) {
  o.algorithm = Algorithm::Hybrid;
  return o;
}

TEST(Hybrid, CompleteGraphClosedForm) {
  const Graph g = complete_graph(11);
  for (int k = 3; k <= 11; ++k) {
    EXPECT_EQ(count_cliques(g, k, hybrid_opts()).count, binomial(11, k)) << "k=" << k;
  }
  EXPECT_EQ(count_cliques(g, 12, hybrid_opts()).count, 0u);
}

TEST(Hybrid, MatchesBruteForce) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = erdos_renyi(45, 330, seed);
    for (int k = 3; k <= 7; ++k) {
      EXPECT_EQ(count_cliques(g, k, hybrid_opts()).count, brute_force_count(g, k))
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(Hybrid, OddAndEvenKBothWork) {
  // The hybrid searches (k-1)-cliques per vertex, exercising both parities
  // of the recursion (pair-growth plus the c=1/c=2 leaves).
  const Graph g = social_like(150, 1100, 0.45, 7);
  for (int k = 3; k <= 8; ++k) {
    EXPECT_EQ(count_cliques(g, k, hybrid_opts()).count, brute_force_count(g, k)) << "k=" << k;
  }
}

TEST(Hybrid, ListingMatchesCountingAndIsValid) {
  const Graph g = erdos_renyi(50, 380, 19);
  for (int k = 3; k <= 6; ++k) {
    const count_t expect = brute_force_count(g, k);
    testing::CliqueCollector collector(g, k);
    const CliqueResult r = list_cliques(g, k, collector.callback(), hybrid_opts());
    EXPECT_EQ(r.count, expect) << "k=" << k;
    collector.expect_valid(expect);
  }
}

TEST(Hybrid, TrivialSizes) {
  const Graph g = erdos_renyi(60, 180, 23);
  EXPECT_EQ(count_cliques(g, 1, hybrid_opts()).count, 60u);
  EXPECT_EQ(count_cliques(g, 2, hybrid_opts()).count, 180u);
  EXPECT_EQ(count_cliques(Graph{}, 5, hybrid_opts()).count, 0u);
}

TEST(Hybrid, StatsReportApproxOrderQuality) {
  const Graph g = social_like(400, 3000, 0.4, 29);
  const CliqueResult r = count_cliques(g, 5, hybrid_opts());
  EXPECT_GT(r.stats.order_quality, 0u);
  EXPECT_EQ(r.stats.top_level_tasks, g.num_nodes());
}

}  // namespace
}  // namespace c3
