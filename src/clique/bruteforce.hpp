// Reference k-clique enumerator for testing.
//
// Straightforward sequential backtracking by vertex id with sorted-vector
// intersections; no orientation tricks, no pruning beyond candidate-set
// size. Exponential in general — use only on small graphs. Every other
// algorithm in the library is validated against this one.
#pragma once

#include "clique/common.hpp"
#include "graph/graph.hpp"

namespace c3 {

struct QueryLimit;

/// Counts all k-cliques by exhaustive backtracking. A non-null `limit` is
/// polled like the recursive searches poll it; once it expires the search
/// stops and the count is partial.
[[nodiscard]] count_t brute_force_count(const Graph& g, int k, QueryLimit* limit = nullptr);

/// Lists all k-cliques (ascending vertex order within each clique).
/// Returns the number reported; stops early when the callback returns false
/// or `limit` expires.
count_t brute_force_list(const Graph& g, int k, const CliqueCallback& callback,
                         QueryLimit* limit = nullptr);

}  // namespace c3
