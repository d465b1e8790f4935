// Tests for Algorithm 3 (community-degeneracy parameterized listing).
#include "clique/c3list_cd.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/combinatorics.hpp"
#include "clique/engine.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "parallel/parallel.hpp"
#include "snapshot/snapshot.hpp"
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

TEST(C3ListCD, K3CountsEachCandidateSetAsOneLeaf) {
  // k = 3 builds no local graph: each task's V'(e) is one c = 1 leaf, in
  // counting and in listing alike, with the recursion's counters.
  const Graph g = social_like(300, 2000, 0.4, 5);
  const PreparedGraph engine(g, exact_opts());
  const CliqueResult counted = engine.count(3);
  testing::CliqueCollector collector(g, 3);
  const CliqueResult listed = engine.list(3, collector.callback());
  collector.expect_valid(counted.count);
  for (const CliqueResult& r : {counted, listed}) {
    EXPECT_EQ(r.count, brute_force_count(g, 3));
    EXPECT_EQ(r.stats.recursive_calls, r.stats.top_level_tasks);
    EXPECT_EQ(r.stats.leaf_work, r.count);
    EXPECT_EQ(r.stats.pairs_probed, 0u);
    EXPECT_EQ(r.stats.intersection_words, 0u);
  }
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

/// K66 beside a sparse random graph on its own 120 vertices.
Graph k66_beside_sparse() {
  const Graph sparse = erdos_renyi(120, 500, 5);
  EdgeList edges;
  for (node_t a = 0; a < 66; ++a)
    for (node_t b = a + 1; b < 66; ++b) edges.push_back(Edge{a, b});
  for (node_t u = 0; u < sparse.num_nodes(); ++u)
    for (const node_t v : sparse.neighbors(u))
      if (u < v) edges.push_back(Edge{66 + u, 66 + v});
  return build_graph(edges, 66 + sparse.num_nodes());
}

TEST(C3ListCD, LaterArcBuildWalksTheSameSearchTree) {
  // G[V'(e)] is filled from each member's later arcs, down to e's position.
  // The search tree must be the one the full-adjacency scan built: these
  // counters were recorded from that build. V'(e) fits one word on the
  // first graph, needs two on the second (gamma 68), and the third has a
  // V'(e) of exactly 64 members (K66's first edge), a full last word. The
  // k = 5 listings of the last two (1.2e7 and 8.9e6 cliques) are left out:
  // they take most of a minute in a sanitizer build. A snapshot-opened
  // engine, and one whose arcs carry edge_t positions (the layout above
  // 2^32 edges), must walk the same tree.
  struct Expected {
    int graph;
    EdgeOrderKind order;
    bool listing;
    int k;
    // count, top_level_tasks, recursive_calls, intersection_words,
    // closed_form_sets, leaf_work
    std::array<count_t, 6> stats;
  };
  const auto exact = EdgeOrderKind::ExactCommunityDegeneracy;
  const auto approx = EdgeOrderKind::ApproxCommunityDegeneracy;
  const Expected expected[] = {
      {0, exact, false, 4, {93599, 1445, 1445, 11842, 0, 93599}},
      {0, exact, false, 6, {3843702, 709, 10727, 105441, 1693, 3843702}},
      {0, exact, true, 4, {93599, 1445, 1445, 0, 0, 93599}},
      {0, exact, true, 5, {660967, 926, 83936, 83738, 0, 660967}},
      {0, approx, false, 4, {93599, 1246, 1246, 12138, 0, 93599}},
      {0, approx, false, 6, {3843702, 862, 1076, 13157, 702, 3843702}},
      {0, approx, true, 4, {93599, 1246, 1246, 0, 0, 93599}},
      {0, approx, true, 5, {660967, 992, 84294, 83802, 0, 660967}},
      {1, exact, false, 4, {918453, 2491, 2491, 56929, 0, 918453}},
      {1, exact, false, 6, {131123399, 2099, 38332, 805474, 4576, 131123399}},
      {1, exact, true, 4, {918453, 2491, 2491, 0, 0, 918453}},
      {1, approx, false, 4, {918453, 2537, 2537, 56339, 0, 918453}},
      {1, approx, false, 6, {131123399, 2231, 2307, 56340, 2201, 131123399}},
      {1, approx, true, 4, {918453, 2537, 2537, 0, 0, 918453}},
      {2, exact, false, 4, {720720, 2016, 2016, 45696, 0, 720720}},
      {2, exact, false, 6, {90858768, 1891, 1891, 45384, 1891, 90858768}},
      {2, exact, true, 4, {720720, 2016, 2016, 0, 0, 720720}},
      {2, approx, false, 4, {720720, 2021, 2021, 45706, 0, 720720}},
      {2, approx, false, 6, {90858768, 1891, 1891, 45384, 1891, 90858768}},
      {2, approx, true, 4, {720720, 2021, 2021, 0, 0, 720720}},
  };
  const Graph graphs[] = {testing::with_planted_clique(social_like(300, 2400, 0.4, 7), 40),
                          testing::with_planted_clique(social_like(300, 1500, 0.5, 11), 70),
                          k66_beside_sparse()};
  const node_t gammas[] = {38, 68, 64};
  const auto stats_of = [](const CliqueResult& r) {
    return std::array<count_t, 6>{r.count,
                                  r.stats.top_level_tasks,
                                  r.stats.recursive_calls,
                                  r.stats.intersection_words,
                                  r.stats.closed_form_sets,
                                  r.stats.leaf_work};
  };
  const auto run = [](const PreparedGraph& engine, bool listing, int k) {
    return listing ? engine.list(k, [](std::span<const node_t>) { return true; })
                   : engine.count(k);
  };

  const auto dir = std::filesystem::temp_directory_path() /
                   ("c3list_cd_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  for (int gi = 0; gi < 3; ++gi) {
    for (const EdgeOrderKind kind : {exact, approx}) {
      CliqueOptions opts;
      opts.algorithm = Algorithm::C3ListCD;
      opts.edge_order = kind;
      const PreparedGraph cold(graphs[gi], opts);
      cold.prepare();
      const auto path = dir / "later_arcs.c3snap";
      snapshot::write(path, cold);
      const auto snap = snapshot::Snapshot::open(path);
      PreparedArtifacts wide_arts;
      wide_arts.edge_order = *cold.edge_order_if_built();
      EXPECT_FALSE(wide_arts.edge_order->later_arcs.empty());
      build_later_arcs_with<edge_t>(graphs[gi], *wide_arts.edge_order);
      ASSERT_TRUE(wide_arts.edge_order->later_arcs.empty());
      const PreparedGraph wide(graphs[gi], opts, std::move(wide_arts));
      for (const int workers : {1, std::max(4, max_workers())}) {
        const int saved = set_num_workers(workers);
        for (const Expected& want : expected) {
          if (want.graph != gi || want.order != kind) continue;
          SCOPED_TRACE("graph " + std::to_string(gi) + (kind == exact ? " exact" : " approx") +
                       (want.listing ? " list" : " count") + " k=" + std::to_string(want.k) +
                       " workers=" + std::to_string(workers));
          const CliqueResult got = run(cold, want.listing, want.k);
          EXPECT_EQ(stats_of(got), want.stats);
          EXPECT_EQ(got.stats.gamma, gammas[gi]);
          EXPECT_EQ(stats_of(run(snap.engine(), want.listing, want.k)), want.stats)
              << "snapshot-opened engine";
          EXPECT_EQ(stats_of(run(wide, want.listing, want.k)), want.stats) << "edge_t positions";
        }
        set_num_workers(saved);
      }
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace c3
