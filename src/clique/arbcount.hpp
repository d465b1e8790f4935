// ArbCount — the baseline of Shi, Dhulipala, Shun, "Parallel clique counting
// and peeling algorithms" (2020; GBBS).
//
// Same clique-growing scheme as kcList, with the two changes the paper
// attributes to Shi et al. (Sections 1.2 and 4.1): (i) the orientation uses
// the low-depth (2+eps)-approximate degeneracy order instead of the
// sequential exact one, and (ii) the recursive search runs on *induced
// subgraphs re-represented per top-level vertex* ("improvements in the data
// structure used to represent the graph during the recursive search") — here
// the same renamed bitset representation the core algorithm uses, where
// candidate-set intersections are word-parallel. Work
// O(m (s(1+eps))^(k-2)) in expectation, depth O(k log n + log^2 n) whp.
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
[[nodiscard]] CliqueResult arbcount_search(const Digraph& dag, int k,
                                           const CliqueCallback* callback,
                                           const CliqueOptions& opts, QueryScratch& scratch);

}  // namespace c3
