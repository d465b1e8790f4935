// The owner-marks triangle kernel behind c3List's edge communities and
// c3List-CD's community-degeneracy edge orders (Chiba and Nishizeki,
// "Arboricity and subgraph listing algorithms", 1985).
//
// Every triangle is found by exactly one *owner* task. The task marks its
// owner vertex's list (mark[w] = slot of w in the list + 1), scans the other
// side of the triangle with O(1) mark probes, then clears the marks. A
// triangle's output location belongs to its owner's task alone, so the
// builds need no atomics; the scanned lists are sorted, so every output
// list comes out sorted and no sort pass follows. Each build runs a size
// pass, a prefix sum, and a fill pass over the same marks. The per-edge
// lists of the exact community-degeneracy order hold a triangle as the ids
// of its two partner edges, read off both endpoints' edge_ids at the
// probe, so the order's sweep reads a partner's state with no adjacency
// lookup.
//
// Mark arrays belong to one OwnerMarks object, i.e. to one build call, one
// uint32_t per vertex per worker that ran a task. Concurrent builds (each
// with its own OpenMP team and worker ids 0..k) never share them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "parallel/padded.hpp"
#include "parallel/parallel.hpp"

namespace c3 {

class OwnerMarks {
 public:
  explicit OwnerMarks(node_t num_nodes) : n_(num_nodes) {}

  /// Runs task(x, mark) for every owner x in [0, n) with at least two
  /// marked vertices (fewer cannot close a triangle), dynamically
  /// scheduled. `mark` is the calling worker's array: mark[w] = i + 1 for
  /// w = list(x)[i], and 0 for every other vertex.
  template <typename List, typename Task>
  void for_each_owner(List&& list, Task&& task) {
    parallel_for_dynamic(0, n_, [&](std::size_t xi) {
      const auto x = static_cast<node_t>(xi);
      const std::span<const node_t> marked = list(x);
      if (marked.size() < 2) return;
      std::vector<std::uint32_t>& mark = marks_.local();
      if (mark.empty()) mark.assign(n_, 0);
      for (std::size_t i = 0; i < marked.size(); ++i)
        mark[marked[i]] = static_cast<std::uint32_t>(i + 1);
      task(x, static_cast<const std::uint32_t*>(mark.data()));
      for (const node_t w : marked) mark[w] = 0;
    });
  }

 private:
  node_t n_;
  PerWorker<std::vector<std::uint32_t>> marks_;
};

/// Triangle counts per undirected edge: counts[e] = |N(u) ∩ N(v)| for
/// e = {u, v}. Algorithm 4's steps 1-2 and the exact order's initial bins.
[[nodiscard]] std::vector<node_t> edge_triangle_counts(const Graph& g);

/// Every triangle of an undirected graph, listed once per edge it contains
/// (3T entries), as a CSR keyed by edge id. Entry i in [offsets[e],
/// offsets[e+1]) is the triangle {u, v, w} of edge e = {u, v} (u < v, as in
/// Graph::endpoints): partner_u[i] is the id of the edge {u, w},
/// partner_v[i] the id of {v, w}. Each edge's triangles run in ascending w.
/// `Id` is std::uint32_t below 2^32 edges (8 bytes per triangle-edge
/// incidence) and edge_t otherwise.
template <typename Id>
struct EdgeTriangles {
  std::vector<node_t> counts;  // m, = offsets[e+1] - offsets[e]
  std::vector<edge_t> offsets; // m+1
  std::vector<Id> partner_u;   // 3T
  std::vector<Id> partner_v;   // 3T
};

/// Lists the triangles of g per edge. An edge is owned by its endpoint with
/// the larger (degree, id), whose task marks its neighbourhood and scans the
/// other endpoint's: O(sum over edges of min(d(u), d(v)) + m) work. `Id`
/// must hold every edge id of g.
template <typename Id>
[[nodiscard]] EdgeTriangles<Id> list_edge_triangles(const Graph& g);

extern template EdgeTriangles<std::uint32_t> list_edge_triangles(const Graph& g);
extern template EdgeTriangles<edge_t> list_edge_triangles(const Graph& g);

}  // namespace c3
