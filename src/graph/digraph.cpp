#include "graph/digraph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "parallel/parallel.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"

namespace c3 {

node_t Digraph::max_out_degree() const noexcept {
  const node_t n = num_nodes();
  if (n == 0) return 0;
  return parallel_max(0, n, node_t{0},
                      [&](std::size_t u) { return out_degree(static_cast<node_t>(u)); });
}

bool Digraph::has_arc(node_t u, node_t v) const noexcept {
  const auto nbrs = out_neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

edge_t Digraph::arc_id(node_t u, node_t v) const noexcept {
  const auto nbrs = out_neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return static_cast<edge_t>(-1);
  return out_offsets_[u] + static_cast<edge_t>(it - nbrs.begin());
}

Digraph Digraph::from_parts(ArrayStore<edge_t> out_offsets, ArrayStore<node_t> out_adj,
                            ArrayStore<node_t> rank_to_orig) {
  Digraph dag;
  dag.out_offsets_ = std::move(out_offsets);
  dag.out_adj_ = std::move(out_adj);
  dag.rank_to_orig_ = std::move(rank_to_orig);
  return dag;
}

Digraph Digraph::orient(const Graph& g, std::span<const node_t> order) {
  const node_t n = g.num_nodes();
  if (order.size() != n) throw std::invalid_argument("orient: order size != vertex count");

  // rank[v] = position of original vertex v in the total order.
  std::vector<node_t> rank(n, kInvalidNode);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] >= n || rank[order[i]] != kInvalidNode)
      throw std::invalid_argument("orient: order is not a permutation");
    rank[order[i]] = static_cast<node_t>(i);
  }

  Digraph dag;
  dag.rank_to_orig_.assign(order.begin(), order.end());

  // Out-degree in rank space: for original vertex v at rank r, count
  // neighbors with higher rank.
  std::vector<edge_t> out_deg(n, 0);
  parallel_for(0, n, [&](std::size_t v) {
    edge_t od = 0;
    for (const node_t w : g.neighbors(static_cast<node_t>(v))) od += rank[w] > rank[v] ? 1 : 0;
    out_deg[rank[v]] = od;
  });

  dag.out_offsets_.resize(n + 1);
  dag.out_offsets_[n] = exclusive_scan<edge_t>(out_deg, std::span<edge_t>(dag.out_offsets_.data(), n));
  dag.out_adj_.resize(dag.out_offsets_[n]);
  assert(dag.out_adj_.size() == g.num_edges());

  // Fill the out-lists in rank space and sort each slice ascending.
  parallel_for(
      0, n,
      [&](std::size_t r) {
        const node_t v = dag.rank_to_orig_[r];
        edge_t pos = dag.out_offsets_[r];
        for (const node_t w : g.neighbors(v)) {
          if (rank[w] > r) dag.out_adj_[pos++] = rank[w];
        }
        std::sort(dag.out_adj_.begin() + static_cast<std::ptrdiff_t>(dag.out_offsets_[r]),
                  dag.out_adj_.begin() + static_cast<std::ptrdiff_t>(pos));
      },
      64);

  return dag;
}

}  // namespace c3
