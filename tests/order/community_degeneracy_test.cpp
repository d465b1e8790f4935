// Tests for the community degeneracy orders (Section 4.3, Algorithm 4).
#include "order/community_degeneracy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>

#include "graph/builder.hpp"
#include "graph/digraph.hpp"
#include "graph/gen/generators.hpp"
#include "order/degeneracy.hpp"
#include "parallel/parallel.hpp"
#include "triangle/communities.hpp"
#include "triangle/reference_builders.hpp"
#include "triangle/triangle_count.hpp"
#include "triangle/triangle_kernel.hpp"

namespace c3 {
namespace {

count_t triangles_of(const Graph& g) {
  std::vector<node_t> order(g.num_nodes());
  for (node_t v = 0; v < g.num_nodes(); ++v) order[v] = v;
  return count_triangles(Digraph::orient(g, order));
}

TEST(CommunityDegeneracy, KnownValues) {
  // Hypercube: degeneracy d but sigma = 0 (no triangles) — the paper's
  // flagship separation example (Section 1.1).
  EXPECT_EQ(community_degeneracy(hypercube(5)), 0u);
  // K_n: every edge sits in n-2 triangles in every K-subgraph.
  EXPECT_EQ(community_degeneracy(complete_graph(6)), 4u);
  EXPECT_EQ(community_degeneracy(complete_graph(3)), 1u);
  // Triangle-free families.
  EXPECT_EQ(community_degeneracy(grid_graph(6, 6)), 0u);
  EXPECT_EQ(community_degeneracy(star_graph(40)), 0u);
  EXPECT_EQ(community_degeneracy(cycle_graph(10)), 0u);
}

TEST(CommunityDegeneracy, BipartitePlusLineHasTinySigma) {
  // Section 1.1: degeneracy Theta(n) but community degeneracy <= 2 (cross
  // edges always have at most two path-neighbors in their community).
  const Graph g = bipartite_plus_line(16);
  const node_t s = degeneracy_order(g).degeneracy;
  const node_t sigma = community_degeneracy(g);
  EXPECT_GE(s, 15u);
  EXPECT_LE(sigma, 2u);
}

TEST(CommunityDegeneracy, SigmaStrictlyBelowDegeneracy) {
  // The paper: sigma < s whenever the graph has an edge (k <= sigma+2 <= s+1).
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = social_like(500, 3500, 0.4, seed);
    if (g.num_edges() == 0) continue;
    EXPECT_LT(community_degeneracy(g), degeneracy_order(g).degeneracy) << "seed " << seed;
  }
}

TEST(CommunityDegeneracy, Observation5TriangleBound) {
  // A graph with community degeneracy sigma has at most sigma * m triangles.
  for (const std::uint64_t seed : {5, 6}) {
    const Graph g = bio_like(400, 1500, 12, 18, 0.5, seed);
    const count_t t = triangles_of(g);
    const node_t sigma = community_degeneracy(g);
    EXPECT_LE(t, static_cast<count_t>(sigma) * g.num_edges()) << "seed " << seed;
  }
}

void check_order_and_candidates(const Graph& g, const EdgeOrderResult& r, node_t candidate_bound) {
  const edge_t m = g.num_edges();
  ASSERT_EQ(r.order.size(), m);
  ASSERT_EQ(r.pos.size(), m);
  // pos is the inverse permutation of order.
  std::vector<bool> seen(m, false);
  for (edge_t i = 0; i < m; ++i) {
    const edge_t e = r.order[i];
    ASSERT_LT(e, m);
    ASSERT_FALSE(seen[e]);
    seen[e] = true;
    ASSERT_EQ(r.pos[e], i);
  }

  // Candidate sets: (a) every member forms a triangle whose two other edges
  // are ordered after e; (b) sizes respect the bound; (c) the total equals
  // the triangle count (each triangle charged exactly once).
  const auto endpoints = g.endpoints();
  count_t total = 0;
  for (edge_t e = 0; e < m; ++e) {
    const auto cand = r.candidates(e);
    ASSERT_LE(cand.size(), candidate_bound) << "edge " << e;
    ASSERT_TRUE(std::is_sorted(cand.begin(), cand.end()));
    total += cand.size();
    for (const node_t w : cand) {
      const edge_t f = g.edge_id(endpoints[e].u, w);
      const edge_t h = g.edge_id(endpoints[e].v, w);
      ASSERT_NE(f, static_cast<edge_t>(-1));
      ASSERT_NE(h, static_cast<edge_t>(-1));
      ASSERT_GT(r.pos[f], r.pos[e]);
      ASSERT_GT(r.pos[h], r.pos[e]);
    }
  }
  EXPECT_EQ(total, triangles_of(g));
}

TEST(CommunityDegeneracy, ExactOrderInvariants) {
  const Graph g = bio_like(300, 1200, 10, 15, 0.5, 11);
  const EdgeOrderResult r = community_degeneracy_order(g);
  check_order_and_candidates(g, r, r.sigma);
}

TEST(CommunityDegeneracy, ApproxOrderInvariantsAndLemma44) {
  const Graph g = bio_like(300, 1200, 10, 15, 0.5, 12);
  const node_t sigma = community_degeneracy(g);
  const double eps = 0.5;
  const EdgeOrderResult r = approx_community_degeneracy_order(g, eps);
  // Lemma 4.4: every candidate set has size at most (3 + eps) * sigma.
  const auto bound = static_cast<node_t>((3.0 + eps) * static_cast<double>(sigma)) + 1;
  check_order_and_candidates(g, r, bound);
  EXPECT_LE(r.sigma, bound);
  EXPECT_GT(r.rounds, 0u);
}

TEST(CommunityDegeneracy, ApproxRoundsLogarithmic) {
  const Graph g = social_like(2000, 16'000, 0.4, 13);
  const EdgeOrderResult r = approx_community_degeneracy_order(g, 0.5);
  EXPECT_LT(r.rounds, 200u);  // O(log_{1+eps/3} m), generous allowance
}

TEST(CommunityDegeneracy, ExactSigmaIsMaxMinOverPeel) {
  // Cross-check sigma against a brute-force max-min computation on a small
  // graph: repeatedly remove the min-support edge, tracking the max.
  const Graph g = erdos_renyi(40, 200, 21);
  const node_t sigma = community_degeneracy(g);

  // Brute force: simulate greedy peeling with recomputation.
  std::vector<bool> removed(g.num_edges(), false);
  const auto endpoints = g.endpoints();
  auto support = [&](edge_t e) {
    node_t cnt = 0;
    for (const node_t w : g.neighbors(endpoints[e].u)) {
      if (!g.has_edge(endpoints[e].v, w)) continue;
      const edge_t f = g.edge_id(endpoints[e].u, w);
      const edge_t h = g.edge_id(endpoints[e].v, w);
      if (!removed[f] && !removed[h]) ++cnt;
    }
    return cnt;
  };
  node_t brute = 0;
  for (edge_t step = 0; step < g.num_edges(); ++step) {
    edge_t best = static_cast<edge_t>(-1);
    node_t best_support = 0;
    for (edge_t e = 0; e < g.num_edges(); ++e) {
      if (removed[e]) continue;
      const node_t sup = support(e);
      if (best == static_cast<edge_t>(-1) || sup < best_support) {
        best = e;
        best_support = sup;
      }
    }
    brute = std::max(brute, best_support);
    removed[best] = true;
  }
  EXPECT_EQ(sigma, brute);
}

TEST(CommunityDegeneracy, EmptyAndEdgelessGraphs) {
  EXPECT_EQ(community_degeneracy(Graph{}), 0u);
  const EdgeOrderResult r = community_degeneracy_order(build_graph(EdgeList{}, 5));
  EXPECT_TRUE(r.order.empty());
  EXPECT_EQ(r.sigma, 0u);
}

template <typename T>
std::vector<T> bytes(std::span<const T> s) {
  return {s.begin(), s.end()};
}

template <typename Pos>
bool same(const std::vector<LaterArc<Pos>>& a, const std::vector<LaterArc<Pos>>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const LaterArc<Pos>& x, const LaterArc<Pos>& y) {
                      return x.position == y.position && x.target == y.target;
                    });
}

bool same(const EdgeOrderResult& a, const EdgeOrderResult& b) {
  return bytes<edge_t>(a.order) == bytes<edge_t>(b.order) &&
         bytes<edge_t>(a.pos) == bytes<edge_t>(b.pos) && a.sigma == b.sigma &&
         a.rounds == b.rounds &&
         bytes<edge_t>(a.candidate_offsets) == bytes<edge_t>(b.candidate_offsets) &&
         bytes<node_t>(a.candidate_members) == bytes<node_t>(b.candidate_members) &&
         a.later_offsets == b.later_offsets && same(a.later_arcs, b.later_arcs) &&
         same(a.later_arcs_wide, b.later_arcs_wide);
}

bool same(const EdgeCommunities& a, const EdgeCommunities& b) {
  return bytes(a.raw_offsets()) == bytes(b.raw_offsets()) &&
         bytes(a.raw_members()) == bytes(b.raw_members());
}

TEST(CommunityDegeneracy, ByteIdenticalToReferenceBuilders) {
  for (const int workers : {1, std::max(4, max_workers())}) {
    SCOPED_TRACE(workers);
    const int saved = set_num_workers(workers);
    for (const Graph& g : reference::graphs()) {
      const EdgeOrderResult want = reference::community_degeneracy_order(g);
      EXPECT_TRUE(same(community_degeneracy_order(g), want))
          << "exact, n=" << g.num_nodes() << " m=" << g.num_edges();
      // Both widths of the triangle lists' partner edge ids.
      EXPECT_TRUE(same(community_degeneracy_order_with_ids<std::uint32_t>(g), want))
          << "exact, 32-bit ids, n=" << g.num_nodes() << " m=" << g.num_edges();
      EXPECT_TRUE(same(community_degeneracy_order_with_ids<edge_t>(g), want))
          << "exact, 64-bit ids, n=" << g.num_nodes() << " m=" << g.num_edges();
      const EdgeTriangles<std::uint32_t> narrow = list_edge_triangles<std::uint32_t>(g);
      const EdgeTriangles<edge_t> wide = list_edge_triangles<edge_t>(g);
      EXPECT_EQ(narrow.counts, wide.counts);
      EXPECT_EQ(narrow.offsets, wide.offsets);
      EXPECT_TRUE(std::equal(narrow.partner_u.begin(), narrow.partner_u.end(),
                             wide.partner_u.begin(), wide.partner_u.end()));
      EXPECT_TRUE(std::equal(narrow.partner_v.begin(), narrow.partner_v.end(),
                             wide.partner_v.begin(), wide.partner_v.end()));
      EXPECT_TRUE(same(approx_community_degeneracy_order(g, 0.5),
                       reference::approx_community_degeneracy_order(g, 0.5)))
          << "approx, n=" << g.num_nodes() << " m=" << g.num_edges();
    }
    set_num_workers(saved);
  }
}

TEST(CommunityDegeneracy, ConcurrentBuildsOfBothArtifactsMatchReference) {
  // Concurrent prepares each run their own team with worker ids 0..k; the
  // kernel's mark arrays must belong to one build call, not to a worker id.
  const int saved = set_num_workers(std::max(4, max_workers()));
  const Graph g = social_like(1500, 12'000, 0.4, 7);
  const Digraph dag = Digraph::orient(g, degeneracy_order(g).order);
  const EdgeOrderResult want_order = reference::community_degeneracy_order(g);
  const EdgeCommunities want_comms = reference::build_communities(dag);
  std::vector<int> matches(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < matches.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        matches[t] += same(community_degeneracy_order(g), want_order);
        matches[t] += same(EdgeCommunities::build(dag), want_comms);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  set_num_workers(saved);
  for (const int m : matches) EXPECT_EQ(m, 6);
}

TEST(CommunityDegeneracy, ApproxRejectsBadEps) {
  EXPECT_THROW((void)approx_community_degeneracy_order(complete_graph(4), 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace c3
