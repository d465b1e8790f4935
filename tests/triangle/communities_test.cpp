// Tests for the edge-community construction (Algorithm 1's preprocessing).
#include "triangle/communities.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "graph/gen/paper_examples.hpp"
#include "order/degeneracy.hpp"
#include "parallel/parallel.hpp"
#include "triangle/reference_builders.hpp"
#include "triangle/triangle_count.hpp"

namespace c3 {
namespace {

Digraph orient_by_id(const Graph& g) {
  std::vector<node_t> order(g.num_nodes());
  for (node_t v = 0; v < g.num_nodes(); ++v) order[v] = v;
  return Digraph::orient(g, order);
}

TEST(Communities, TotalSizeEqualsTriangleCount) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = social_like(300, 2200, 0.4, seed);
    const Digraph dag = orient_by_id(g);
    const EdgeCommunities comms = EdgeCommunities::build(dag);
    EXPECT_EQ(comms.total_size(), count_triangles(dag)) << "seed " << seed;
    EXPECT_EQ(comms.num_edges(), dag.num_arcs());
  }
}

TEST(Communities, MembersSortedStrictlyBetweenEndpointsAndAdjacent) {
  const Graph g = erdos_renyi(80, 600, 5);
  const Digraph dag = orient_by_id(g);
  const EdgeCommunities comms = EdgeCommunities::build(dag);
  for (node_t u = 0; u < dag.num_nodes(); ++u) {
    for (const node_t v : dag.out_neighbors(u)) {
      const auto members = comms.members(dag.arc_id(u, v));
      ASSERT_TRUE(std::is_sorted(members.begin(), members.end()));
      ASSERT_TRUE(std::adjacent_find(members.begin(), members.end()) == members.end());
      for (const node_t w : members) {
        // Community = N+(u) ∩ N-(v): ordered strictly between the endpoints
        // and adjacent to both.
        ASSERT_GT(w, u);
        ASSERT_LT(w, v);
        ASSERT_TRUE(dag.has_arc(u, w));
        ASSERT_TRUE(dag.has_arc(w, v));
      }
    }
  }
}

TEST(Communities, MatchesBruteForceIntersection) {
  const Graph g = erdos_renyi(50, 300, 6);
  const Digraph dag = orient_by_id(g);
  const EdgeCommunities comms = EdgeCommunities::build(dag);
  for (node_t u = 0; u < dag.num_nodes(); ++u) {
    for (const node_t v : dag.out_neighbors(u)) {
      const edge_t e = dag.arc_id(u, v);
      std::vector<node_t> expect;
      for (node_t w = u + 1; w < v; ++w) {
        if (dag.has_arc(u, w) && dag.has_arc(w, v)) expect.push_back(w);
      }
      const auto members = comms.members(e);
      ASSERT_EQ(std::vector<node_t>(members.begin(), members.end()), expect) << "edge " << e;
    }
  }
}

TEST(Communities, Figure1CommunityOfSupportingEdge) {
  // Figure 1: in K6 the edge {v1, v2}... but under the id orientation the
  // supporting edge of the whole clique is (v1, v6), whose community is all
  // four middle vertices.
  const Graph g = figure1_graph();
  const Digraph dag = orient_by_id(g);
  const EdgeCommunities comms = EdgeCommunities::build(dag);
  const edge_t e16 = dag.arc_id(0, 5);
  ASSERT_NE(e16, static_cast<edge_t>(-1));
  const auto members = comms.members(e16);
  EXPECT_EQ(std::vector<node_t>(members.begin(), members.end()),
            (std::vector<node_t>{1, 2, 3, 4}));
}

TEST(Communities, Figure3OnlyOneEdgeSupportsSixClique) {
  // Figure 3(a): searching for a 6-clique (k-2 = 4), only edge (v1, v6) has
  // a community of size >= 4.
  const Graph g = figure2_graph();
  const Digraph dag = orient_by_id(g);
  const EdgeCommunities comms = EdgeCommunities::build(dag);
  int qualifying = 0;
  for (node_t u = 0; u < dag.num_nodes(); ++u) {
    for (const node_t v : dag.out_neighbors(u)) {
      if (comms.size(dag.arc_id(u, v)) >= 4) {
        ++qualifying;
        EXPECT_EQ(u, 0u);
        EXPECT_EQ(v, 5u);
      }
    }
  }
  EXPECT_EQ(qualifying, 1);
}

TEST(Communities, MaxSizeIsGamma) {
  const Graph g = complete_graph(9);
  const EdgeCommunities comms = EdgeCommunities::build(orient_by_id(g));
  // Largest community in K9 under any total order: the (first,last) edge
  // holds all 7 middle vertices.
  EXPECT_EQ(comms.max_size(), 7u);
}

template <typename T>
std::vector<T> bytes(std::span<const T> s) {
  return {s.begin(), s.end()};
}

void expect_same_as_reference(const Digraph& dag) {
  const EdgeCommunities got = EdgeCommunities::build(dag);
  const EdgeCommunities want = reference::build_communities(dag);
  EXPECT_EQ(bytes(got.raw_offsets()), bytes(want.raw_offsets())) << "arcs=" << dag.num_arcs();
  EXPECT_EQ(bytes(got.raw_members()), bytes(want.raw_members())) << "arcs=" << dag.num_arcs();
}

TEST(Communities, ByteIdenticalToReferenceBuilder) {
  for (const int workers : {1, std::max(4, max_workers())}) {
    SCOPED_TRACE(workers);
    const int saved = set_num_workers(workers);
    for (const Graph& g : reference::graphs()) {
      expect_same_as_reference(orient_by_id(g));
      expect_same_as_reference(Digraph::orient(g, degeneracy_order(g).order));
    }
    set_num_workers(saved);
  }
}

TEST(Communities, EmptyGraph) {
  const EdgeCommunities comms = EdgeCommunities::build(Digraph{});
  EXPECT_EQ(comms.num_edges(), 0u);
  EXPECT_EQ(comms.total_size(), 0u);
  EXPECT_EQ(comms.max_size(), 0u);
}

}  // namespace
}  // namespace c3
