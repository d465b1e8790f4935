// Shared types of the clique-listing algorithms: options, result statistics,
// and the listing callback.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>

#include "graph/types.hpp"

namespace c3 {

/// Which k-clique algorithm to run (see DESIGN.md Section 1, the system
/// inventory).
enum class Algorithm {
  C3List,      ///< the paper's community-centric algorithm (Algorithms 1+2)
  C3ListCD,    ///< Algorithm 3, parameterized by community degeneracy
  Hybrid,      ///< Section 4.2: approximate outer order, exact inner orders
  KCList,      ///< baseline: Danisch et al. (WWW'18)
  ArbCount,    ///< baseline: Shi et al. (parallel clique counting)
  BruteForce,  ///< reference enumerator for testing
};

/// Vertex total order used to orient the graph (Section 4; the ordering
/// heuristics beyond the degeneracy orders follow Li et al. [36], cited in
/// the paper's related work).
enum class VertexOrderKind {
  Default,           ///< what the algorithm's paper uses: exact degeneracy for
                     ///< c3List/kcList, (2+eps)-approximate for ArbCount
  ExactDegeneracy,   ///< Lemma 4.1 — best work, O(n) depth
  ApproxDegeneracy,  ///< Lemma 4.2 — (2+eps)-approximate, polylog depth
  Degree,            ///< non-decreasing degree (a popular cheap heuristic)
  Random,            ///< uniform random (hash of id + order_seed)
  ById,              ///< identity order (for testing / Algorithm 3's inner order)
};

/// Edge total order for the community-degeneracy variant (Section 4.3).
enum class EdgeOrderKind {
  ExactCommunityDegeneracy,   ///< greedy — best work, linear depth
  ApproxCommunityDegeneracy,  ///< Algorithm 4 — (3+eps)-approximate, polylog depth
};

struct CliqueOptions {
  Algorithm algorithm = Algorithm::C3List;
  VertexOrderKind vertex_order = VertexOrderKind::Default;
  EdgeOrderKind edge_order = EdgeOrderKind::ExactCommunityDegeneracy;
  /// Approximation slack for the approximate orders.
  double eps = 0.5;
  /// Seed for VertexOrderKind::Random.
  std::uint64_t order_seed = 1;
  /// The paper's relevant-pair criterion (delta_I(u,v) >= c-2). Disabling it
  /// reverts to probing all candidate pairs — the ablation of Figure 2's
  /// pruning rule.
  bool distance_pruning = true;
  /// Grow the clique by triangles (3 vertices per level) instead of edges —
  /// the generalization the paper's conclusion raises as future work.
  /// Supported by C3List, C3ListCD, and Hybrid.
  bool triangle_growth = false;
};

/// Instrumentation counters, aggregated over all workers. These are the
/// empirical counterparts of the quantities in the paper's work analysis:
/// pairs_probed ~ |R^P|, edges_matched ~ |R^E|, intersection_words ~ the
/// intersection work, leaf_work ~ the listing cost L(c, I).
struct CliqueStats {
  count_t cliques = 0;
  count_t top_level_tasks = 0;     ///< edges (or vertices) spawning a search
  count_t recursive_calls = 0;
  count_t pairs_probed = 0;        ///< candidate pairs examined
  count_t edges_matched = 0;       ///< probed pairs that were edges (recursed)
  count_t intersection_words = 0;  ///< 64-bit words touched by intersections
  count_t leaf_work = 0;           ///< work at recursion leaves (c <= 2)
  count_t dense_subproblems = 0;   ///< subproblems routed to the dense
                                   ///< (bitset local-graph) path vs CSR
  node_t gamma = 0;                ///< largest community / candidate set
  node_t order_quality = 0;        ///< max out-degree (or max |V'|) induced by the order
  double preprocess_seconds = 0.0;
  double search_seconds = 0.0;
};

/// Result of one clique query: the global count plus instrumentation.
struct CliqueResult {
  count_t count = 0;
  CliqueStats stats;
};

/// Per-worker counter block merged into CliqueStats at the end of a run.
struct LocalCounters {
  count_t recursive_calls = 0;
  count_t pairs_probed = 0;
  count_t edges_matched = 0;
  count_t intersection_words = 0;
  count_t leaf_work = 0;
  count_t dense_subproblems = 0;

  void merge_into(CliqueStats& s) const noexcept {
    s.recursive_calls += recursive_calls;
    s.pairs_probed += pairs_probed;
    s.edges_matched += edges_matched;
    s.intersection_words += intersection_words;
    s.leaf_work += leaf_work;
    s.dense_subproblems += dense_subproblems;
  }
};

/// Folds one worker's per-query accumulators — its clique count and counter
/// block — into a result. The single merge point for every search half (the
/// lease's merge_into drains all worker slots through it), so the stats
/// contract lives in exactly one place.
inline void merge_stats(CliqueResult& result, count_t count, const LocalCounters& ctr) noexcept {
  result.count += count;
  ctr.merge_into(result.stats);
  result.stats.cliques = result.count;
}

/// Folds one query's stats into a running total across queries (e.g. a
/// benchmark's per-layer totals over a query set). Work counters, `cliques`
/// and both wall-clock fields (preprocess_seconds, search_seconds) sum, so
/// the total's times are the summed time of its queries, not the longest
/// one. The structural quality figures (gamma, order_quality) take the max,
/// since the aggregate is only as well-ordered as its worst part.
inline void accumulate_stats(CliqueStats& into, const CliqueStats& from) noexcept {
  into.cliques += from.cliques;
  into.top_level_tasks += from.top_level_tasks;
  into.recursive_calls += from.recursive_calls;
  into.pairs_probed += from.pairs_probed;
  into.edges_matched += from.edges_matched;
  into.intersection_words += from.intersection_words;
  into.leaf_work += from.leaf_work;
  into.dense_subproblems += from.dense_subproblems;
  into.gamma = std::max(into.gamma, from.gamma);
  into.order_quality = std::max(into.order_quality, from.order_quality);
  into.preprocess_seconds += from.preprocess_seconds;
  into.search_seconds += from.search_seconds;
}

/// Listing callback: receives the k vertices of each clique (original vertex
/// ids, unspecified order). Return true to continue the enumeration, false
/// to stop early (used by the decision/witness queries). May be invoked
/// concurrently from multiple workers.
using CliqueCallback = std::function<bool(std::span<const node_t>)>;

}  // namespace c3
