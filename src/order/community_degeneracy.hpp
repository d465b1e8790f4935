// Community degeneracy orderings (Section 4.3).
//
// A graph is sigma-community-degenerate if every (non-edgeless) subgraph has
// an edge whose community (the common neighborhood of its endpoints, i.e.
// the triangles through it) has size at most sigma. The community degeneracy
// sigma is strictly below the degeneracy s and can be asymptotically smaller
// (Buchanan et al.); parameterizing the clique search by sigma instead of s
// is the paper's Algorithm 3.
//
// Two implementations of the edge total order:
//  * community_degeneracy_order — exact greedy: repeatedly remove an edge
//    supporting the fewest remaining triangles (bucket queue; the edge
//    analogue of Matula-Beck). The owner-marks kernel lists every edge's
//    triangles first, O(sum over edges of min(d(u), d(v)) + m) parallel
//    work, with a transient of 8 bytes per triangle-edge incidence (24 T
//    bytes); the sequential sweep then walks those lists in O(m + T).
//    Candidate sets have size at most sigma.
//  * approx_community_degeneracy_order (Algorithm 4) — peels all edges with
//    at most (3+eps) * T/m remaining triangles per round; O(log_{1+eps} m)
//    rounds (Observation 6), low depth, candidate sets at most (3+eps) sigma
//    (Lemma 4.4). Its initial per-edge counts are the kernel's size pass.
//
// Both also emit, for every edge e = {u,v}, the candidate set
// V'(e) = C_{(V, E[e <=])}(e): the vertices w completing a triangle with e
// whose connecting edges (u,w), (v,w) are both ordered *after* e. These are
// exactly the sets Algorithm 3 recurses on, and each triangle of the graph
// appears in exactly one candidate set (its lowest-ordered edge's).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "util/array_store.hpp"

namespace c3 {

// Array members are ArrayStore (vector-compatible when built in memory) so a
// snapshot-loaded order can borrow mmap-backed sections.
struct EdgeOrderResult {
  /// order[i] = edge id removed i-th.
  ArrayStore<edge_t> order;
  /// pos[e] = position of edge e in the order (inverse of `order`).
  ArrayStore<edge_t> pos;
  /// Exact sigma for the greedy order; the (3+eps)-approximate bound
  /// max |V'(e)| for Algorithm 4.
  node_t sigma = 0;
  /// Number of peeling rounds (1 per edge for the greedy variant).
  node_t rounds = 0;
  /// CSR of candidate sets: candidate_members[candidate_offsets[e] ..
  /// candidate_offsets[e+1]) are the vertices of V'(e), sorted ascending.
  /// Total size equals the number of triangles in the graph.
  ArrayStore<edge_t> candidate_offsets;
  ArrayStore<node_t> candidate_members;

  [[nodiscard]] std::span<const node_t> candidates(edge_t e) const noexcept {
    return {candidate_members.data() + candidate_offsets[e],
            candidate_members.data() + candidate_offsets[e + 1]};
  }

  [[nodiscard]] node_t candidate_count(edge_t e) const noexcept {
    return static_cast<node_t>(candidate_offsets[e + 1] - candidate_offsets[e]);
  }
};

/// Exact greedy community-degeneracy order; result.sigma is the exact
/// community degeneracy of g.
[[nodiscard]] EdgeOrderResult community_degeneracy_order(const Graph& g);

/// Algorithm 4: (3+eps)-approximate community-degeneracy order with
/// polylogarithmic round count. `eps` must be > 0.
[[nodiscard]] EdgeOrderResult approx_community_degeneracy_order(const Graph& g, double eps = 0.5);

/// The exact community degeneracy (convenience wrapper).
[[nodiscard]] node_t community_degeneracy(const Graph& g);

}  // namespace c3
