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
//    bytes: each incidence is the two partner edges' ids, 32-bit below
//    2^32 edges); the sequential sweep then walks those lists in O(m + T),
//    reading a partner's state straight from its id. Candidate sets have
//    size at most sigma.
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
//
// And both keep the order's *later arcs*, from which Algorithm 3 fills
// G[V'(e)] without scanning adjacency lists: every edge is stored once, at
// its endpoint with the smaller (degree, id) (the Chiba-Nishizeki
// orientation, so a list holds O(sqrt m) arcs), as a (target, position)
// entry, and each vertex's list runs in descending order position. The
// edges of G[V'(e)] are exactly the arcs between members positioned after
// e, so a member's read stops at the first arc at or before e.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "util/array_store.hpp"

namespace c3 {

/// One later arc: the edge to `target`, at `position` in the edge order.
/// Positions are 32-bit below 2^32 edges (8-byte arcs) and edge_t above.
template <typename Pos>
struct LaterArc {
  Pos position;
  node_t target;
};

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
  /// Later arcs (see the header comment): entries [later_offsets[v] ..
  /// later_offsets[v+1]) of the filled array are the edges stored at v, in
  /// descending position. build_later_arcs fills `later_arcs` below 2^32
  /// edges and `later_arcs_wide` above; the other stays empty. Derived from
  /// `order`; never serialized.
  std::vector<edge_t> later_offsets;
  std::vector<LaterArc<std::uint32_t>> later_arcs;
  std::vector<LaterArc<edge_t>> later_arcs_wide;

  [[nodiscard]] std::span<const node_t> candidates(edge_t e) const noexcept {
    return {candidate_members.data() + candidate_offsets[e],
            candidate_members.data() + candidate_offsets[e + 1]};
  }

  [[nodiscard]] node_t candidate_count(edge_t e) const noexcept {
    return static_cast<node_t>(candidate_offsets[e + 1] - candidate_offsets[e]);
  }

  /// v's later arcs in the array of `Pos` positions.
  template <typename Pos>
  [[nodiscard]] std::span<const LaterArc<Pos>> later(node_t v) const noexcept {
    const auto& arcs = later_array<Pos>();
    return {arcs.data() + later_offsets[v], arcs.data() + later_offsets[v + 1]};
  }

  template <typename Pos>
  [[nodiscard]] const std::vector<LaterArc<Pos>>& later_array() const noexcept {
    if constexpr (std::is_same_v<Pos, std::uint32_t>) {
      return later_arcs;
    } else {
      return later_arcs_wide;
    }
  }
};

/// Fills result.later_offsets and, by the number of edges, later_arcs or
/// later_arcs_wide from result.order, in O(n + m). `order` must be a
/// permutation of g's edge ids.
void build_later_arcs(const Graph& g, EdgeOrderResult& result);

/// build_later_arcs with `Pos` positions (std::uint32_t or edge_t) whatever
/// the number of edges, clearing the other array; the tests run the wide
/// arcs on small graphs this way. Pos = std::uint32_t needs m < 2^32.
template <typename Pos>
void build_later_arcs_with(const Graph& g, EdgeOrderResult& result);

/// Exact greedy community-degeneracy order; result.sigma is the exact
/// community degeneracy of g.
[[nodiscard]] EdgeOrderResult community_degeneracy_order(const Graph& g);

/// The exact order with the triangle lists' partner edge ids held as `Id`
/// (std::uint32_t or edge_t). community_degeneracy_order uses 32-bit ids
/// below 2^32 edges; both instantiations give byte-identical results.
template <typename Id>
[[nodiscard]] EdgeOrderResult community_degeneracy_order_with_ids(const Graph& g);

/// Algorithm 4: (3+eps)-approximate community-degeneracy order with
/// polylogarithmic round count. `eps` must be > 0.
[[nodiscard]] EdgeOrderResult approx_community_degeneracy_order(const Graph& g, double eps = 0.5);

/// The exact community degeneracy (convenience wrapper).
[[nodiscard]] node_t community_degeneracy(const Graph& g);

}  // namespace c3
