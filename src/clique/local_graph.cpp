#include "clique/local_graph.hpp"

#include <atomic>

namespace c3 {

void LocalGraph::reset(int n) {
  // Invariant: rows_ is all-zero except the rows in dirty_rows_. Clear just
  // those, under the *old* stride they were written with.
  for (const int a : dirty_rows_) {
    bits::clear_words(row_mut(a), static_cast<std::size_t>(words_));
    row_dirty_[static_cast<std::size_t>(a)] = 0;
  }
  dirty_rows_.clear();

  n_ = n;
  words_ = static_cast<int>(bits::kernel_stride_words(static_cast<std::size_t>(n)));
  const std::size_t needed = static_cast<std::size_t>(n) * static_cast<std::size_t>(words_);
  if (rows_.size() < needed) rows_.resize(needed);  // growth value-initializes to zero
  if (row_dirty_.size() < static_cast<std::size_t>(n)) {
    row_dirty_.resize(static_cast<std::size_t>(n), 0);
  }
  dirty_rows_.reserve(static_cast<std::size_t>(n));  // keeps mark_dirty allocation-free
}

void build_local_graph(const Digraph& dag, std::span<const node_t> members, LocalGraph& lg) {
  const int n = static_cast<int>(members.size());
  lg.reset(n);
  for (int a = 0; a < n; ++a) {
    const auto out = dag.out_neighbors(members[static_cast<std::size_t>(a)]);
    // Two-pointer walk: members are sorted ascending and out-neighbors of
    // members[a] all rank above it, so matches have local id > a.
    std::size_t i = 0;
    std::size_t j = static_cast<std::size_t>(a) + 1;
    while (i < out.size() && j < members.size()) {
      if (out[i] < members[j]) {
        ++i;
      } else if (out[i] > members[j]) {
        ++j;
      } else {
        lg.add_edge(a, static_cast<int>(j));
        ++i;
        ++j;
      }
    }
  }
}

namespace {

std::atomic<int>& dense_min() noexcept {
  static std::atomic<int> value{32};
  return value;
}

}  // namespace

bool use_dense_subproblem(int nvertices, std::int64_t arcs_upper) noexcept {
  if (nvertices < dense_min().load(std::memory_order_relaxed)) return false;
  // Average degree >= n/8: the bitset rebuild costs O(n·stride) words, the
  // recursion then probes word-parallel; sparse subproblems stay CSR.
  return arcs_upper * 16 >= static_cast<std::int64_t>(nvertices) * nvertices;
}

void set_dense_subproblem_min_vertices(int n) noexcept {
  dense_min().store(n, std::memory_order_relaxed);
}

int dense_subproblem_min_vertices() noexcept {
  return dense_min().load(std::memory_order_relaxed);
}

}  // namespace c3
