// kcList — the baseline of Danisch, Balalau, Sozio (WWW 2018), "Listing
// k-cliques in sparse real-world graphs".
//
// Vertex-centric backtracking over a graph oriented by the *exact*
// degeneracy order: for each vertex u (in parallel), search (k-1)-cliques in
// N+(u) by repeatedly picking a vertex v of the current candidate set and
// descending into N+(v) ∩ S. Membership of the shrinking candidate set is
// tracked with the per-level label array of the original kClist
// implementation (label[w] == l  <=>  w survives at level l). Work
// O(k m (s/2)^(k-2)), depth O(n + log^2 n) from the sequential order
// computation (Table 1).
#pragma once

#include "clique/c3list.hpp"
#include "clique/common.hpp"
#include "clique/scratch.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "parallel/padded.hpp"

namespace c3 {

/// Search half on a prepared orientation: requires k >= 3. `callback` may be
/// null (counting). `scratch` is this query's leased state (see
/// c3list_search).
[[nodiscard]] CliqueResult kclist_search(const Digraph& dag, int k,
                                         const CliqueCallback* callback, const CliqueOptions& opts,
                                         QueryScratch& scratch);

}  // namespace c3
