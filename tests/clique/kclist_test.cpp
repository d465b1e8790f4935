// Tests for the kcList baseline (Danisch et al.).
#include "clique/kclist.hpp"

#include <gtest/gtest.h>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/combinatorics.hpp"
#include "graph/gen/generators.hpp"
#include "test_helpers.hpp"

namespace c3 {
namespace {

/// `o` with the algorithm under test selected.
CliqueOptions kclist_opts(CliqueOptions o = {}) {
  o.algorithm = Algorithm::KCList;
  return o;
}

TEST(KCList, CompleteGraphClosedForm) {
  const Graph g = complete_graph(11);
  for (int k = 3; k <= 11; ++k) {
    EXPECT_EQ(count_cliques(g, k, kclist_opts()).count, binomial(11, k)) << "k=" << k;
  }
}

TEST(KCList, MatchesBruteForce) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = erdos_renyi(45, 330, seed);
    for (int k = 3; k <= 7; ++k) {
      EXPECT_EQ(count_cliques(g, k, kclist_opts()).count, brute_force_count(g, k))
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(KCList, WorksWithApproximateOrderToo) {
  const Graph g = erdos_renyi(60, 500, 4);
  CliqueOptions approx;
  approx.vertex_order = VertexOrderKind::ApproxDegeneracy;
  for (int k = 4; k <= 6; ++k) {
    EXPECT_EQ(count_cliques(g, k, kclist_opts(approx)).count, count_cliques(g, k, kclist_opts()).count) << "k=" << k;
  }
}

TEST(KCList, ListingMatchesCountingAndIsValid) {
  const Graph g = erdos_renyi(50, 380, 31);
  for (int k = 3; k <= 6; ++k) {
    const count_t expect = brute_force_count(g, k);
    testing::CliqueCollector collector(g, k);
    const CliqueResult r = list_cliques(g, k, collector.callback(), kclist_opts());
    EXPECT_EQ(r.count, expect) << "k=" << k;
    collector.expect_valid(expect);
  }
}

TEST(KCList, TrivialSizesAndEmpty) {
  const Graph g = erdos_renyi(40, 100, 37);
  EXPECT_EQ(count_cliques(g, 1, kclist_opts()).count, 40u);
  EXPECT_EQ(count_cliques(g, 2, kclist_opts()).count, 100u);
  EXPECT_EQ(count_cliques(Graph{}, 5, kclist_opts()).count, 0u);
  EXPECT_EQ(count_cliques(hypercube(5), 3, kclist_opts()).count, 0u);
}

TEST(KCList, RejectsAbsurdK) { EXPECT_THROW((void)count_cliques(complete_graph(4), 300, kclist_opts()), std::invalid_argument); }

}  // namespace
}  // namespace c3
