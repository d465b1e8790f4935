// Local subgraph representation for the recursive search.
//
// Algorithm 1 preprocesses each qualifying edge e by renaming its community
// C(e) to consecutive integers and building "an adjacency matrix of G[C(e)]"
// with "a boolean indicator table" per edge (Section 2.2). We realize both
// as bitset rows over the local universe: row(a) holds the local neighbors
// of a, so edge probes are single bit tests and community intersections are
// word-parallel ANDs.
//
// Local ids are assigned in ascending rank order, so the total order of the
// orientation is the natural `<` on local ids and the paper's distance
// function delta_I is an index difference in the sorted candidate array.
//
// Storage follows the kernel substrate contract (util/bitkernels.hpp): rows
// live in 64-byte-aligned memory with a per-row stride of
// kernel_stride_words(n) — exact for communities of <= 256 vertices, padded
// to the 512-bit vector width above that — and padding words stay zero so
// the SIMD kernels can run tail-free over whole rows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "clique/common.hpp"
#include "graph/digraph.hpp"
#include "util/bitkernels.hpp"
#include "util/bitwords.hpp"

namespace c3 {

/// Reusable per-worker storage for one local subgraph and the recursion
/// stacks on top of it. Sized for the largest community met so far; reused
/// across top-level edges to avoid allocation in the hot loop.
class LocalGraph {
 public:
  /// Prepares an empty local graph over `n` vertices. Clearing is lazy:
  /// only the rows actually populated for the previous community are
  /// zeroed (everything else is zero by invariant), so tiny communities
  /// stop paying O(n·words) memset on every top-level edge.
  void reset(int n);

  /// Number of local vertices.
  [[nodiscard]] int size() const noexcept { return n_; }

  /// Words per bitset row (the kernel stride — padding words are zero).
  [[nodiscard]] int words() const noexcept { return words_; }

  /// Adds the undirected edge {a, b} (sets both direction bits).
  void add_edge(int a, int b) noexcept {
    mark_dirty(a);
    mark_dirty(b);
    bits::set_bit(row_mut(a), static_cast<std::size_t>(b));
    bits::set_bit(row_mut(b), static_cast<std::size_t>(a));
  }

  [[nodiscard]] bool has_edge(int a, int b) const noexcept {
    return bits::test_bit(row(a), static_cast<std::size_t>(b));
  }

  [[nodiscard]] const std::uint64_t* row(int a) const noexcept {
    return rows_.data() + static_cast<std::size_t>(a) * static_cast<std::size_t>(words_);
  }

  [[nodiscard]] std::uint64_t* row_mut(int a) noexcept {
    return rows_.data() + static_cast<std::size_t>(a) * static_cast<std::size_t>(words_);
  }

  /// Rows touched since the last reset (test/observability hook for the
  /// lazy-clearing invariant).
  [[nodiscard]] int dirty_rows() const noexcept { return static_cast<int>(dirty_rows_.size()); }

 private:
  void mark_dirty(int a) noexcept {
    if (row_dirty_[static_cast<std::size_t>(a)] == 0) {
      row_dirty_[static_cast<std::size_t>(a)] = 1;
      dirty_rows_.push_back(a);  // within capacity: reset() reserves n slots
    }
  }

  int n_ = 0;
  int words_ = 0;
  bits::KernelWords rows_;
  std::vector<std::uint8_t> row_dirty_;
  std::vector<int> dirty_rows_;
};

/// Populates `lg` with the subgraph of `dag` induced by `members` (global
/// ranks, sorted ascending). Every arc between members is found in the
/// out-list of its lower endpoint via a sorted two-pointer intersection:
/// O(sum over members of (out-degree + |members|)).
void build_local_graph(const Digraph& dag, std::span<const node_t> members, LocalGraph& lg);

/// Dense-vs-CSR subproblem selection: true when a subproblem over
/// `nvertices` vertices with at most `arcs_upper` arcs is worth rebuilding
/// as a bitset LocalGraph (at least dense_subproblem_min_vertices()
/// vertices and average degree >= nvertices/8); below either bar the CSR
/// label recursion stays cheaper.
[[nodiscard]] bool use_dense_subproblem(int nvertices, std::int64_t arcs_upper) noexcept;

/// The vertex-count floor for use_dense_subproblem. Default 32; settable at
/// runtime so tests can force the dense (1) or CSR (INT_MAX) path.
void set_dense_subproblem_min_vertices(int n) noexcept;
[[nodiscard]] int dense_subproblem_min_vertices() noexcept;

}  // namespace c3
