// Tests for graph orientation (Digraph).
#include "graph/digraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"

namespace c3 {
namespace {

std::vector<node_t> identity_order(node_t n) {
  std::vector<node_t> order(n);
  std::iota(order.begin(), order.end(), node_t{0});
  return order;
}

TEST(Digraph, OrientByIdentityGoesUpward) {
  const Graph g = build_graph(EdgeList{{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const Digraph dag = Digraph::orient(g, identity_order(4));
  EXPECT_EQ(dag.num_arcs(), g.num_edges());
  for (node_t u = 0; u < dag.num_nodes(); ++u) {
    for (const node_t v : dag.out_neighbors(u)) ASSERT_GT(v, u);
  }
  EXPECT_TRUE(dag.has_arc(0, 1));
  EXPECT_FALSE(dag.has_arc(1, 0));
}

TEST(Digraph, OrientByReverseOrderFlipsArcs) {
  const Graph g = build_graph(EdgeList{{0, 1}, {1, 2}});
  std::vector<node_t> reverse = {2, 1, 0};
  const Digraph dag = Digraph::orient(g, reverse);
  // Rank space: rank0 = vertex 2, rank1 = vertex 1, rank2 = vertex 0.
  EXPECT_EQ(dag.original_id(0), 2u);
  EXPECT_EQ(dag.original_id(2), 0u);
  EXPECT_TRUE(dag.has_arc(0, 1));  // edge {2,1} goes rank0 -> rank1
  EXPECT_TRUE(dag.has_arc(1, 2));  // edge {1,0} goes rank1 -> rank2
}

TEST(Digraph, DegreeSumsAndArcEndpoints) {
  // Every edge {u, v} of g is exactly one arc, from the lower to the higher
  // rank, and arc ids are the positions met walking the sources in order.
  const Graph g = erdos_renyi(200, 800, 5);
  std::vector<node_t> shuffled = identity_order(200);
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(11));
  for (const std::vector<node_t>& order : {identity_order(200), shuffled}) {
    const Digraph dag = Digraph::orient(g, order);
    ASSERT_EQ(dag.num_arcs(), g.num_edges());

    std::vector<std::pair<node_t, node_t>> arcs;  // original ids, lower first
    edge_t e = 0;
    for (node_t u = 0; u < dag.num_nodes(); ++u) {
      ASSERT_EQ(dag.original_id(u), order[u]);
      for (const node_t v : dag.out_neighbors(u)) {
        ASSERT_LT(u, v);
        ASSERT_EQ(dag.arc_target(e), v);
        ASSERT_EQ(dag.arc_id(u, v), e);
        ASSERT_EQ(dag.arc_id(v, u), static_cast<edge_t>(-1));
        const node_t a = dag.original_id(u), b = dag.original_id(v);
        arcs.emplace_back(std::min(a, b), std::max(a, b));
        ++e;
      }
    }
    ASSERT_EQ(e, dag.num_arcs());

    std::vector<std::pair<node_t, node_t>> edges;
    for (const Edge& edge : g.endpoints()) edges.emplace_back(edge.u, edge.v);
    std::sort(arcs.begin(), arcs.end());
    std::sort(edges.begin(), edges.end());
    EXPECT_EQ(arcs, edges);
  }
}

TEST(Digraph, InOutAdjacencySorted) {
  const Graph g = erdos_renyi(100, 400, 6);
  const Digraph dag = Digraph::orient(g, identity_order(100));
  for (node_t v = 0; v < 100; ++v) {
    const auto out = dag.out_neighbors(v);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  }
}

TEST(Digraph, MaxOutDegree) {
  const Graph g = star_graph(10);  // center 0
  const Digraph dag = Digraph::orient(g, identity_order(10));
  EXPECT_EQ(dag.max_out_degree(), 9u);  // center first -> all arcs out
  // Center last: every leaf has out-degree 1.
  std::vector<node_t> center_last = {1, 2, 3, 4, 5, 6, 7, 8, 9, 0};
  const Digraph dag2 = Digraph::orient(g, center_last);
  EXPECT_EQ(dag2.max_out_degree(), 1u);
}

TEST(Digraph, RejectsNonPermutations) {
  const Graph g = build_graph(EdgeList{{0, 1}}, 3);
  EXPECT_THROW((void)Digraph::orient(g, std::vector<node_t>{0, 1}), std::invalid_argument);
  EXPECT_THROW((void)Digraph::orient(g, std::vector<node_t>{0, 1, 1}), std::invalid_argument);
  EXPECT_THROW((void)Digraph::orient(g, std::vector<node_t>{0, 1, 5}), std::invalid_argument);
}

}  // namespace
}  // namespace c3
