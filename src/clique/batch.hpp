// QueryBatch — schedules a set of typed queries against one PreparedGraph.
//
// A serving layer rarely gets one query at a time: it gets a mixed bag of
// counts, decision probes, spectra, and max-clique requests against the same
// prepared graph. QueryBatch runs public Query values (query.hpp) and
// returns typed Answers, with two-level parallelism:
//
//   * *across* queries — cheap queries are issued concurrently from a pool
//     of executor threads, each leasing its own QueryScratch from the
//     engine; the worker pool is split between them with per-thread
//     WorkerCapScopes (the process-global worker cap is never written, so
//     batches cannot race external set_num_workers callers — or each other);
//   * *within* queries — expensive queries keep the full worker pool for
//     their internal parallelism and run one at a time.
//
// Cheap vs expensive is decided by estimate_query_cost (query.hpp): a work
// estimate from k and the engine's prepared artifacts, not a hard-coded kind
// split — a k=9 count on a dense graph schedules as heavy, a has_clique
// probe as light. Light queries are handed to the executors in
// longest-estimated-first order so the last thread is not left holding the
// slowest query. Per-query worker caps (Query::opts.max_workers) compose
// with the executor split by minimum.
//
// Add queries, then answers(): results come back in submission order. The
// engine's artifacts are forced before the first non-trivial query
// executes, so at most one query ever pays preparation.
#pragma once

#include <cstddef>
#include <vector>

#include "clique/engine.hpp"
#include "clique/query.hpp"

namespace c3 {

class QueryBatch {
 public:
  /// Binds the batch to `engine` (not copied — must outlive the batch).
  explicit QueryBatch(const PreparedGraph& engine) : engine_(&engine) {}

  /// Appends `query`; returns its index into the answers() vector.
  int add(Query query);

  [[nodiscard]] std::size_t size() const noexcept { return queries_.size(); }
  [[nodiscard]] const std::vector<Query>& queries() const noexcept { return queries_; }

  /// Executes every query and returns typed Answers in submission order.
  /// `concurrency` caps how many light queries run at once (0 = one per
  /// worker; 1 = fully serial). Executor threads cap themselves with
  /// per-thread WorkerCapScopes — the global worker count is never written.
  /// Rethrows the first query exception after all threads join. Idempotent:
  /// may be called again (everything re-executes against the warm engine).
  [[nodiscard]] std::vector<Answer> answers(int concurrency = 0) const;

 private:
  const PreparedGraph* engine_;
  std::vector<Query> queries_;
};

}  // namespace c3
