// Edge communities (Section 1.1 / Algorithm 1, line 1: "Build the
// communities and sort them").
//
// In the oriented graph, the community of an arc e = (u, v) is
// C(e) = N+(u) ∩ N−(v): the vertices w with u → w → v, i.e. exactly the
// vertices ordered between u and v that close a triangle over e. Every
// triangle (a, b, c), a < b < c, belongs to exactly one community — that of
// its supporting arc (a, c), with member b — so the total community size
// equals the triangle count T.
//
// Stored as a CSR keyed by arc id, with each community sorted ascending by
// rank (the order Algorithm 2's candidate arrays require).
#pragma once

#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/types.hpp"
#include "util/array_store.hpp"

namespace c3 {

class EdgeCommunities {
 public:
  EdgeCommunities() = default;

  /// Builds all communities of `dag` with the owner-marks kernel
  /// (triangle/triangle_kernel.hpp): the task of each source a marks N+(a)
  /// and scans N+(b) for every b in N+(a), a size pass and a fill pass of
  /// O(sum over arcs a->b of d+(b)) work each, no atomics and no sort.
  /// Transient memory, per worker: a mark array of n uint32_t and d+(a) + 1
  /// counters or cursors for the task in hand.
  [[nodiscard]] static EdgeCommunities build(const Digraph& dag);

  /// Assembles from prebuilt arrays without recomputation (the snapshot
  /// loader's path; arrays may be ArrayStore views over mapped memory).
  [[nodiscard]] static EdgeCommunities from_parts(ArrayStore<edge_t> offsets,
                                                  ArrayStore<node_t> members);

  /// Community of arc e, sorted ascending; all members lie strictly between
  /// the arc's endpoints in rank order.
  [[nodiscard]] std::span<const node_t> members(edge_t e) const noexcept {
    return {members_.data() + offsets_[e], members_.data() + offsets_[e + 1]};
  }

  [[nodiscard]] node_t size(edge_t e) const noexcept {
    return static_cast<node_t>(offsets_[e + 1] - offsets_[e]);
  }

  /// Number of arcs (communities).
  [[nodiscard]] edge_t num_edges() const noexcept {
    return offsets_.empty() ? 0 : static_cast<edge_t>(offsets_.size() - 1);
  }

  /// Total size of all communities == number of triangles.
  [[nodiscard]] count_t total_size() const noexcept { return members_.size(); }

  /// Largest community size (the paper's gamma).
  [[nodiscard]] node_t max_size() const noexcept;

  /// Raw arrays for the snapshot writer.
  [[nodiscard]] std::span<const edge_t> raw_offsets() const noexcept { return offsets_; }
  [[nodiscard]] std::span<const node_t> raw_members() const noexcept { return members_; }

 private:
  // ArrayStore so snapshot-loaded communities can borrow mapped sections.
  ArrayStore<edge_t> offsets_;   // m+1
  ArrayStore<node_t> members_;   // T, per-arc sorted
};

}  // namespace c3
