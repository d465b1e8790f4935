// Shared types of the clique-listing algorithms: options, result statistics,
// and the listing callback.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>

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
///
/// They describe the search actually walked. A count (no callback) takes
/// the closed form C(|I|, c) for every complete candidate set it meets and
/// walks nothing below it (DESIGN.md, "Counting closed form"): the set adds
/// one recursive call, its completeness test's words and C(|I|, c) to
/// leaf_work, and one closed_form_sets. So a count's probe and call
/// counters fall where complete sets are common, while leaf_work still sums
/// to the count; a listing walks every leaf.
struct CliqueStats {
  count_t cliques = 0;
  count_t top_level_tasks = 0;     ///< edges (or vertices) spawning a search
  count_t recursive_calls = 0;
  count_t pairs_probed = 0;        ///< candidate pairs examined
  count_t edges_matched = 0;       ///< probed pairs that were edges (recursed)
  count_t intersection_words = 0;  ///< 64-bit words touched by intersections
  count_t leaf_work = 0;           ///< work at recursion leaves (c <= 2)
  count_t closed_form_sets = 0;    ///< complete candidate sets counted as
                                   ///< C(|I|, c) instead of walked
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
  count_t closed_form_sets = 0;
  count_t dense_subproblems = 0;
  /// A clique count this worker summed went past count_t's maximum; the
  /// query is refused at the merge (see add_count).
  bool count_overflow = false;

  void merge_into(CliqueStats& s) const noexcept {
    s.recursive_calls += recursive_calls;
    s.pairs_probed += pairs_probed;
    s.edges_matched += edges_matched;
    s.intersection_words += intersection_words;
    s.leaf_work += leaf_work;
    s.closed_form_sets += closed_form_sets;
    s.dense_subproblems += dense_subproblems;
  }
};

/// total += n for a clique count. Closed forms make totals past 2^64
/// reachable in milliseconds (C(68, 36) ~ 2.2e19), so a sum that leaves
/// count_t's range raises ctr.count_overflow instead of wrapping silently.
inline void add_count(count_t& total, count_t n, LocalCounters& ctr) noexcept {
  if (__builtin_add_overflow(total, n, &total)) ctr.count_overflow = true;
}

/// Folds one worker's per-query accumulators — its clique count and counter
/// block — into a result. The single merge point for every search half (the
/// lease's merge_into drains all worker slots through it), so the stats
/// contract lives in exactly one place. Throws std::overflow_error when the
/// worker's count or the query's total left count_t's range: an answer is
/// refused rather than wrapped.
inline void merge_stats(CliqueResult& result, count_t count, const LocalCounters& ctr) {
  if (ctr.count_overflow || __builtin_add_overflow(result.count, count, &result.count)) {
    throw std::overflow_error(
        "clique count overflow: more than 18446744073709551615 cliques (the 64-bit count "
        "range); refused rather than wrapped");
  }
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
  into.closed_form_sets += from.closed_form_sets;
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
