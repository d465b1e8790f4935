// c3List — the paper's community-centric k-clique listing algorithm
// (Algorithm 1 driving Algorithm 2).
//
// Pipeline: orient the graph by a total vertex order (Section 4), build and
// sort all edge communities (Section 2.2), then — in parallel over the
// sources u with at least one out-arc supporting k-2 triangles — build one
// indicator-table adjacency of G[N+(u)] and run the recursive search for
// (k-2)-cliques once per such arc e = u->v, with C(e) as the top-level
// candidates. Every community of an arc out of u lies in N+(u), and
// b ∈ C(u->v) exactly when b->v is an arc inside N+(u), so the rows come
// straight from u's communities, each located in N+(u) by one linear
// merge: O(d+(u)²) per source. At k = 3 nothing is built: every
// community member closes a triangle. Work/depth bounds: Theorem 2.1,
// instantiated by the chosen order per Table 1; a top-level task runs its
// source's arcs one after another, so its span is the sum over those arcs.
//
// stats.top_level_tasks counts the qualifying arcs, as in Algorithm 1, not
// the sources. Worker memory is one local graph of s-tilde·⌈s-tilde/64⌉
// words (s-tilde = the largest out-degree; the per-edge build needed
// γ·⌈γ/64⌉) plus the local ids of one source's communities.
//
// The pipeline is split into a prepare half (order + orientation +
// communities, owned by PreparedGraph in engine.hpp) and the search half
// below, so one preparation can serve many k queries. One-shot counting and
// listing go through count_cliques / list_cliques (api.hpp) with
// opts.algorithm set; the same holds for every algorithm's header.
#pragma once

#include "clique/common.hpp"
#include "clique/scratch.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "parallel/padded.hpp"
#include "triangle/communities.hpp"

namespace c3 {

/// Search half of Algorithm 1 on prepared artifacts: requires k >= 3, an
/// oriented `dag` and its edge communities. `callback` may be null
/// (counting). `scratch` is this query's leased state — reset here, reused
/// warm across queries, and the only mutable state the search touches, so
/// concurrent callers with distinct leases never interfere. Stats report
/// only the search (preprocess_seconds stays 0).
[[nodiscard]] CliqueResult c3list_search(const Digraph& dag, const EdgeCommunities& comms, int k,
                                         const CliqueCallback* callback, const CliqueOptions& opts,
                                         QueryScratch& scratch);

}  // namespace c3
