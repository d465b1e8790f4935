// Per-query scratch leased by the search halves of all clique algorithms.
//
// Every algorithm's inner loop re-represents a small subproblem (a community,
// a candidate set, an out-neighborhood) in worker-local storage. One
// CliqueScratch is the union of those worker states; one QueryScratch is a
// full query's mutable state — a CliqueScratch per worker plus the shared
// early-stop flag — so nothing a search touches outlives or escapes the
// query. A PreparedGraph owns a ScratchPool<QueryScratch> and checks one
// QueryScratch out per in-flight query (ScratchLease): sequential queries
// reuse the same warm buffers, concurrent queries each get their own, and
// the pool grows only under actual contention. Fields unused by a given
// algorithm stay empty and cost nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "clique/common.hpp"
#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "graph/types.hpp"
#include "parallel/padded.hpp"
#include "parallel/parallel.hpp"
#include "parallel/scratch_pool.hpp"

namespace c3 {

/// Scratch arrays of the small-universe exact degeneracy sweep the hybrid
/// algorithm runs inside each out-neighborhood (see hybrid.cpp).
struct LocalDegeneracyScratch {
  std::vector<int> adj_offsets, adj, degree, bin, verts, pos;
};

/// kcList's CSR subproblem (see kclist.cpp): G[N+(u)] over local ids
/// 0..d-1, each row holding exactly its matches and reordered in place by
/// the per-level sub-degree partition; the task's labels; one sub-degree
/// array per level (stride d); and the top level's candidates 0..d-1.
/// Every array is sized by the largest G[N+(u)] met so far, never by n.
struct SubDagScratch {
  std::vector<int> offsets, adj, degree, all;
  std::vector<std::uint8_t> label;
};

/// One worker's reusable state for a sequence of clique searches; handed to
/// the *_search functions inside a QueryScratch, whose reset_query() clears
/// the per-query accumulators while keeping the capacity of every buffer.
struct CliqueScratch {
  // Shared by the community-centric searches (c3List, c3List-CD, hybrid),
  // ArbCount, and kcList (ctx's stop state and listing stack; lg on its
  // dense-subproblem path).
  LocalGraph lg;
  SearchContext ctx;
  std::vector<node_t> member_orig;  // local id -> original vertex id (listing)
  std::vector<int> local_ids;       // c3List: a source's communities in local ids
  std::vector<std::uint32_t> member_slot;  // c3List-CD: vertex -> local id + 1, else 0

  // Hybrid: the out-neighborhood subgraph before the inner-order renaming,
  // plus the inner exact degeneracy order and its scratch.
  LocalGraph lg_aux;
  std::vector<int> inner_order, inner_rank;
  LocalDegeneracyScratch deg;

  // kcList's CSR path. (ArbCount's per-level candidate masks live in ctx —
  // search_cliques_vertex uses the same aligned mask pool as the
  // edge-growth recursion.)
  SubDagScratch sub;

  // Per-query accumulators. Early-stop state lives in ctx (stopped / stop /
  // limit / callback) for every algorithm — kcList uses only those fields
  // and the listing stack of its SearchContext on its CSR path, so the
  // cross-worker stop logic exists exactly once (SearchContext::poll_stop /
  // request_stop).
  LocalCounters ctr;
  count_t count = 0;
};

/// One query's complete mutable state: a warm CliqueScratch per worker and
/// the stop flag shared by that query's workers (and nobody else's). The
/// search halves receive exactly one QueryScratch and touch nothing outside
/// it, which is what makes queries against one PreparedGraph safe to issue
/// from many threads at once.
struct QueryScratch {
  PerWorker<CliqueScratch> workers;
  std::atomic<bool> stop{false};

  /// The query's budget / cancel limit, or null when it has neither.
  /// Installed by the engine before each search; reset_query arms every
  /// worker's context with it.
  QueryLimit* limit = nullptr;

  /// Prepares every slot for a new query: rebuilds the slot array if the
  /// worker pool grew past it (so local() never clamps), resets the
  /// accumulators, clears the stop flag, and arms each worker's context
  /// with `callback`, the stop flag and the limit. The flag is wired only
  /// when something can raise it — a listing callback or an armed limit —
  /// so a plain count never polls it. Warm buffers survive. Every search
  /// re-initialises its per-task state at each top-level task, so a lease
  /// that a throwing callback unwound through needs no repair.
  void reset_query(const CliqueCallback* callback) {
    if (workers.size() < static_cast<std::size_t>(num_workers()))
      workers = PerWorker<CliqueScratch>();
    for (std::size_t i = 0; i < workers.size(); ++i) {
      CliqueScratch& w = workers.slot(i);
      w.ctr = {};
      w.count = 0;
      w.ctx.stopped = false;
      w.ctx.callback = callback;
      w.ctx.stop = callback != nullptr || limit != nullptr ? &stop : nullptr;
      w.ctx.limit = limit;
      w.ctx.limit_countdown = 1;
    }
    stop.store(false, std::memory_order_relaxed);
  }

  /// The top-level loops' once-per-task check: the shared stop flag, plus
  /// the cancel token when a limit is armed (raising the flag when it is
  /// set). The deadline is left to the recursions' strided polls.
  [[nodiscard]] bool halted() noexcept {
    if (stop.load(std::memory_order_relaxed)) return true;
    if (limit == nullptr || !limit->cancelled()) return false;
    stop.store(true, std::memory_order_relaxed);
    return true;
  }

  /// The calling worker's scratch.
  [[nodiscard]] CliqueScratch& local() noexcept { return workers.local(); }

  /// Drains every slot's count and counters into `result` after a search.
  void merge_into(CliqueResult& result) const {
    for (std::size_t i = 0; i < workers.size(); ++i)
      merge_stats(result, workers.slot(i).count, workers.slot(i).ctr);
  }
};

/// RAII checkout of one QueryScratch from an engine's pool.
using ScratchLease = ScratchPool<QueryScratch>::Lease;

}  // namespace c3
