// Tests for the core community-centric algorithm (Algorithms 1 + 2).
#include "clique/c3list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/combinatorics.hpp"
#include "clique/engine.hpp"
#include "graph/gen/generators.hpp"
#include "parallel/parallel.hpp"
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
  // For k close to gamma the distance criterion rejects most pairs. The
  // input must make the count walk: a complete graph such as K16 is
  // counted in closed form and probes no pair at all.
  const Graph g = erdos_renyi(120, 5000, 1);
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

TEST(C3List, PerSourceBuildWalksTheSameSearchTree) {
  // c3List builds one local graph per source u, over N+(u), and searches
  // each community C(u->v) as a candidate subset of it. A count walks
  // exactly the tree a compact G[C(e)] per edge walks, minus the subtrees
  // of complete candidate sets, which it takes in closed form: count,
  // top_level_tasks and leaf_work are the values the per-edge build walked
  // to, and the other counters are pinned from the closed-form search.
  // intersection_words is pinned only where s-tilde <= 64 (every universe
  // one word): a wider source universe spans more words per popcount than
  // a compact one. (CountingClosedForm.ListingWalksTheSameTreeAsBefore pins the
  // full tree a listing still walks.)
  struct Pinned {
    int k;
    count_t count, tasks, calls, probed, matched, words, leaf;
  };
  struct Case {
    Graph g;
    bool one_word;
    std::vector<Pinned> pins;
  };
  const Case cases[] = {
      {erdos_renyi(60, 500, 4),
       true,
       {{3, 819, 333, 333, 0, 0, 0, 819},
        {4, 314, 217, 217, 0, 0, 703, 314},
        {5, 31, 134, 161, 491, 158, 296, 31},
        {6, 1, 76, 79, 223, 66, 148, 1},
        {7, 0, 37, 37, 88, 31, 68, 0},
        {8, 0, 16, 16, 29, 8, 24, 0}}},
      {testing::with_planted_clique(social_like(200, 1200, 0.5, 7), 16),
       true,
       {{3, 1435, 587, 587, 0, 0, 0, 1435},
        {4, 2100, 303, 303, 0, 0, 1151, 2100},
        {5, 4409, 177, 200, 280, 82, 724, 4409},
        {6, 8012, 121, 122, 110, 27, 578, 8012},
        {7, 11440, 78, 78, 31, 7, 470, 11440},
        {8, 12870, 49, 49, 4, 0, 394, 12870}}},
      // s-tilde = 69: source universes span two words. The walk took
      // seconds per run at k = 7 and 8 (1.2e9 and 9.4e9 cliques); the closed
      // form takes the K70's complete sets in one step each.
      {testing::with_planted_clique(social_like(300, 1500, 0.5, 11), 70),
       false,
       {{3, 56007, 2903, 2903, 0, 0, 0, 56007},
        {4, 918453, 2553, 2553, 0, 0, 0, 918453},
        {5, 12106425, 2380, 2566, 469, 239, 0, 12106425},
        {6, 131123399, 2232, 2326, 237, 134, 0, 131123399},
        {7, 1198788303, 2136, 2183, 124, 74, 0, 1198788303},
        {8, 9440371298, 2051, 2075, 64, 45, 0, 9440371298}}},
  };
  CliqueOptions kclist;
  kclist.algorithm = Algorithm::KCList;
  for (const Case& c : cases) {
    const PreparedGraph engine(c.g, {});
    const PreparedGraph reference(c.g, kclist);
    for (const int workers : {1, std::max(4, max_workers())}) {
      const int old = set_num_workers(workers);
      for (const Pinned& p : c.pins) {
        const std::string where = "n=" + std::to_string(c.g.num_nodes()) +
                                  " k=" + std::to_string(p.k) +
                                  " workers=" + std::to_string(workers);
        const CliqueResult r = engine.count(p.k);
        EXPECT_EQ(r.count, p.count) << where;
        EXPECT_EQ(r.stats.top_level_tasks, p.tasks) << where;
        EXPECT_EQ(r.stats.recursive_calls, p.calls) << where;
        EXPECT_EQ(r.stats.pairs_probed, p.probed) << where;
        EXPECT_EQ(r.stats.edges_matched, p.matched) << where;
        EXPECT_EQ(r.stats.leaf_work, p.leaf) << where;
        if (c.one_word) {
          EXPECT_EQ(r.stats.intersection_words, p.words) << where;
        }
        if (p.count > 1'000'000) continue;  // listing every clique costs too much
        EXPECT_EQ(engine.per_vertex_counts(p.k), reference.per_vertex_counts(p.k)) << where;
      }
      set_num_workers(old);
    }
  }
}

}  // namespace
}  // namespace c3
