// kcList — the baseline of Danisch, Balalau, Sozio (WWW 2018), "Listing
// k-cliques in sparse real-world graphs".
//
// Vertex-centric backtracking over a graph oriented by the *exact*
// degeneracy order: for each vertex u (in parallel), search (k-1)-cliques in
// N+(u) by repeatedly picking a vertex v of the current candidate set S_l
// and descending into N+(v) ∩ S_l. As in the reference implementation, each
// top-level task first renumbers G[N+(u)] to local ids 0..d-1 (d = |N+(u)|)
// as CSR rows holding exactly their matches, and keeps one sub-degree array
// per level: the first d_l(v) entries of v's row are its neighbours in S_l.
// A level scans only that prefix, relabels the survivors to l-1, and
// partitions each survivor's own prefix in place so its label-(l-1)
// neighbours come first — their number is d_{l-1}. At l = 2 a count is
// Σ d_2(v), with no scan. Work O(k m (s/2)^(k-2)), depth O(n + log^2 n)
// from the sequential order computation (Table 1).
//
// A count takes a complete S_l (l >= 3) in closed form, as C(|S_l|, l),
// without descending: G[S_l] is a DAG, so it is complete exactly when
// Σ d_l(v) = |S_l|(|S_l| - 1)/2, a sum each level's caller accumulates while
// it partitions — the test costs no extra pass (DESIGN.md §7, "Counting
// closed form").
//
// Counters: edges_matched sums d_l(v) = |N+(v) ∩ S_l| over every v a level
// picks, pairs_probed adds to it every entry a partition tests, leaf_work
// is Σ d_2 plus every closed form's count, and closed_form_sets counts the
// sets taken in closed form. Counting subproblems dense enough for
// use_dense_subproblem run the bitset vertex-growth recursion instead
// (dense_subproblems). Worker memory is O(k·d + arcs of G[N+(u)]) for the
// largest N+(u) met, independent of n.
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
