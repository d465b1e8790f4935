// Parallel triangle counting (Section 2.2 preprocessing: "We can compute the
// triangles of a graph in O(m s~) work and O(log^2 n) depth").
#pragma once

#include "graph/digraph.hpp"
#include "graph/types.hpp"

namespace c3 {

/// Counts the triangles of the underlying undirected graph. Each triangle
/// {a, b, c} with ranks a < b < c is counted once at its lowest arc (a, b)
/// by intersecting the out-neighborhoods of a and b. O(m * max-out-degree)
/// work over a per-source parallel loop (one task per a, walking b in N+(a)).
[[nodiscard]] count_t count_triangles(const Digraph& dag);

/// Invokes f(a, b, c) for every triangle, with a < b < c in rank space.
/// f may be called concurrently from multiple workers.
template <typename F>
void for_each_triangle(const Digraph& dag, F&& f);

}  // namespace c3

#include "triangle/triangle_count_impl.hpp"
