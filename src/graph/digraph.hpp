// Directed acyclic graph obtained by orienting an undirected graph with a
// total vertex order (Section 1.1: "To orient a graph by a total order,
// direct its edges from the endpoint lower in the total order to the
// endpoint higher"). Acyclic by construction.
//
// Vertices are *renamed into rank space*: vertex r of the Digraph is the
// (r+1)-th vertex of the total order. This makes the order the natural `<`
// on ids, so "vertices ordered between u and v" (the paper's pruning
// criterion) is computable from ids/array indices alone, and each out-list
// is kept sorted ascending for merge intersections. Only out-arcs are kept:
// every search reads N+(u), and the communities are found from out-lists
// alone (w joins C(u->v) when u->w and w->v).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "util/array_store.hpp"

namespace c3 {

class Digraph {
 public:
  Digraph() = default;

  [[nodiscard]] node_t num_nodes() const noexcept {
    return out_offsets_.empty() ? 0 : static_cast<node_t>(out_offsets_.size() - 1);
  }

  /// Number of arcs = number of undirected edges m.
  [[nodiscard]] edge_t num_arcs() const noexcept { return out_adj_.size(); }

  /// Out-neighbors of u (all have rank > u), sorted ascending. The arc ids
  /// are the positions in this global array: arc e spans
  /// [out_offsets_[u], out_offsets_[u+1]) for its source u.
  [[nodiscard]] std::span<const node_t> out_neighbors(node_t u) const noexcept {
    return {out_adj_.data() + out_offsets_[u], out_adj_.data() + out_offsets_[u + 1]};
  }

  [[nodiscard]] node_t out_degree(node_t u) const noexcept {
    return static_cast<node_t>(out_offsets_[u + 1] - out_offsets_[u]);
  }

  /// Largest out-degree (the paper's s-tilde); bounds every community size
  /// by s-tilde - 1.
  [[nodiscard]] node_t max_out_degree() const noexcept;

  /// O(log d) arc membership test, u -> v.
  [[nodiscard]] bool has_arc(node_t u, node_t v) const noexcept;

  /// Global arc id of u -> v (index into the out-adjacency array), or
  /// static_cast<edge_t>(-1) if absent.
  [[nodiscard]] edge_t arc_id(node_t u, node_t v) const noexcept;

  /// Target vertex of arc `e`.
  [[nodiscard]] node_t arc_target(edge_t e) const noexcept { return out_adj_[e]; }

  /// Original (pre-renaming) vertex id of rank r.
  [[nodiscard]] node_t original_id(node_t r) const noexcept { return rank_to_orig_[r]; }

  [[nodiscard]] std::span<const node_t> rank_to_original() const noexcept { return rank_to_orig_; }

  [[nodiscard]] std::span<const edge_t> raw_out_offsets() const noexcept { return out_offsets_; }
  [[nodiscard]] std::span<const node_t> raw_out_adjacency() const noexcept { return out_adj_; }

  /// Orients `g` by a total order. `order[i]` is the vertex placed at rank i;
  /// it must be a permutation of all vertices.
  [[nodiscard]] static Digraph orient(const Graph& g, std::span<const node_t> order);

  /// Assembles a Digraph from complete prebuilt arrays without recomputation
  /// (the snapshot loader's path; arrays may be ArrayStore views over mapped
  /// memory). Invariants are the caller's responsibility.
  [[nodiscard]] static Digraph from_parts(ArrayStore<edge_t> out_offsets,
                                          ArrayStore<node_t> out_adj,
                                          ArrayStore<node_t> rank_to_orig);

 private:
  // ArrayStore so a snapshot-loaded Digraph can borrow mmap-backed sections.
  ArrayStore<edge_t> out_offsets_;  // n+1
  ArrayStore<node_t> out_adj_;      // m, per-vertex sorted, targets > source
  ArrayStore<node_t> rank_to_orig_; // n, rank -> original vertex id
};

}  // namespace c3
