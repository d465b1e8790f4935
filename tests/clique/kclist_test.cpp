// Tests for the kcList baseline (Danisch et al.).
#include "clique/kclist.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/combinatorics.hpp"
#include "clique/engine.hpp"
#include "clique/local_graph.hpp"
#include "graph/gen/generators.hpp"
#include "parallel/parallel.hpp"
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

TEST(KCList, SubDegreePartitionAgreesAtDepth) {
  // Every subproblem on the CSR path, k up to 14 inside a planted K16 and a
  // K20: the per-level partition runs a dozen levels deep, serially and with
  // several workers, and must count and list exactly the reference cliques.
  const int saved = dense_subproblem_min_vertices();
  set_dense_subproblem_min_vertices(1 << 30);
  const Graph graphs[] = {testing::with_planted_clique(social_like(200, 1200, 0.5, 7), 16),
                          complete_graph(20)};
  for (const Graph& g : graphs) {
    const PreparedGraph reference(g, {});  // c3List
    const PreparedGraph engine(g, kclist_opts());
    for (const int workers : {1, std::max(4, max_workers())}) {
      const int old = set_num_workers(workers);
      for (int k = 3; k <= 14; ++k) {
        const count_t expect = reference.count(k).count;
        EXPECT_EQ(engine.count(k).count, expect) << "n=" << g.num_nodes() << " k=" << k << " workers=" << workers;
        if (expect > 50'000) continue;  // keep the collector's set small
        testing::CliqueCollector collector(g, k);
        EXPECT_EQ(engine.list(k, collector.callback()).count, expect)
            << "n=" << g.num_nodes() << " k=" << k << " workers=" << workers;
        collector.expect_valid(expect);
      }
      set_num_workers(old);
    }
  }
  set_dense_subproblem_min_vertices(saved);
}

TEST(KCList, SubDegreePartitionWalksTheSameSearchTree) {
  // The kClist search tree of this input — calls, descents, leaves — is the
  // same however a level finds N+(v) ∩ S_l; these values pin it, so a
  // partition that loses or misplaces survivors, or a moved prune, shows
  // here even where the counts still agree. A count takes a complete S_l in
  // closed form (13 sets at k = 5), so its tree stops there. pairs_probed
  // is not pinned: it measures how the survivors are found.
  const int saved = dense_subproblem_min_vertices();
  set_dense_subproblem_min_vertices(1 << 30);
  const Graph g = erdos_renyi(60, 500, 4);
  const PreparedGraph engine(g, kclist_opts());
  struct Pinned {
    int k;
    count_t count, recursive_calls, edges_matched, leaf_work;
  };
  for (const Pinned& p : {Pinned{4, 314, 314, 819, 314}, Pinned{5, 31, 210, 1023, 31}}) {
    const CliqueResult r = engine.count(p.k);
    EXPECT_EQ(r.count, p.count) << "k=" << p.k;
    EXPECT_EQ(r.stats.recursive_calls, p.recursive_calls) << "k=" << p.k;
    EXPECT_EQ(r.stats.edges_matched, p.edges_matched) << "k=" << p.k;
    EXPECT_EQ(r.stats.leaf_work, p.leaf_work) << "k=" << p.k;
    EXPECT_EQ(r.stats.dense_subproblems, 0u) << "k=" << p.k;
  }
  set_dense_subproblem_min_vertices(saved);
}

TEST(KCList, RejectsAbsurdK) { EXPECT_THROW((void)count_cliques(complete_graph(4), 300, kclist_opts()), std::invalid_argument); }

}  // namespace
}  // namespace c3
