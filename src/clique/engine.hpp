// Plan/execute query engine: prepare the graph once, answer many queries —
// from many threads at once.
//
// Every clique algorithm factors into a *query-independent* prepare half —
// the total vertex order and the oriented DAG (Section 4), the sorted edge
// communities (Algorithm 1, line 1), or the community-degeneracy edge order
// (Algorithm 3) — and a k-dependent search half. The one-shot entry points
// (count_cliques / list_cliques, api.hpp) recompute the prepare half on
// every call; a PreparedGraph computes each artifact at most once (lazily,
// on first use) and serves any number of queries from it: counts and
// listings for any k, the full clique spectrum, per-vertex/per-edge local
// counts, and maximum-clique searches. It also owns a ScratchPool of
// per-query state (local bitset subgraphs, recursion stacks, label arrays),
// so repeated queries reuse warm buffers instead of reallocating.
//
// Contract (see DESIGN.md Section 2):
//  * The Graph must outlive the PreparedGraph; the engine keeps a reference.
//  * opts.algorithm is fixed at construction and selects which artifacts are
//    built; all queries of one engine run that algorithm.
//  * Each query's CliqueStats.preprocess_seconds reports only the
//    preparation performed *during that query* — 0 once the artifacts exist
//    (the reuse guarantee; prepare() forces them eagerly).
//  * Queries are safe to issue concurrently from any number of threads.
//    Lazy preparation is latched per artifact (the first query to need one
//    builds it exactly once while concurrent queries wait, and only the
//    building query's stats report the cost), and every in-flight query
//    leases its own QueryScratch from the engine's pool, so no mutable
//    state is shared between queries. Queries still parallelize internally
//    across the worker pool. For scheduling a whole set of queries, see
//    QueryBatch (batch.hpp).
//  * run(const Query&) is the one execution entry (query.hpp): every named
//    query method below is a thin wrapper that builds the matching Query.
//    Queries carry their own resource control — per-query worker cap,
//    wall-clock budget, cancel token, result limit — honored uniformly by
//    every kind.
//  * Stats from several queries fold together with accumulate_stats
//    (common.hpp), which sums the work counters and the wall-clock fields.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "clique/common.hpp"
#include "clique/query.hpp"
#include "clique/scratch.hpp"
#include "clique/spectrum.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "obs/trace.hpp"
#include "order/community_degeneracy.hpp"
#include "triangle/communities.hpp"

namespace c3 {

/// A bundle of already-built artifacts handed to a PreparedGraph at
/// construction — the snapshot loader's path (snapshot/snapshot.hpp). Each
/// present artifact is installed with its preparation latch already fired,
/// so no query ever rebuilds it: artifacts_built() counts it immediately and
/// stays stable, and prepare_seconds() stays 0. Artifacts may be backed by
/// borrowed (mmap-backed) memory; whatever owns that memory must outlive the
/// engine.
struct PreparedArtifacts {
  std::optional<Digraph> dag;
  std::optional<EdgeCommunities> communities;
  std::optional<EdgeOrderResult> edge_order;
  std::optional<node_t> exact_degeneracy;
};

class PreparedGraph {
 public:
  /// Binds the engine to `g` (not copied — must outlive the engine) and
  /// fixes the algorithm and its options. No artifact is built yet.
  explicit PreparedGraph(const Graph& g, const CliqueOptions& opts = {});

  /// Loaded-artifact construction: installs every artifact present in
  /// `loaded` as already prepared. The engine never rebuilds an installed
  /// artifact; artifacts missing from `loaded` are still built lazily on
  /// first use. Shape invariants (the artifacts describe `g` under `opts`)
  /// are the caller's responsibility — the snapshot loader validates them
  /// before constructing.
  PreparedGraph(const Graph& g, const CliqueOptions& opts, PreparedArtifacts loaded);

  PreparedGraph(PreparedGraph&&) noexcept;
  PreparedGraph& operator=(PreparedGraph&&) noexcept;
  ~PreparedGraph();

  // ------------------------------------------------------------- queries

  /// The unified entry: answers any Query (query.hpp), honoring its
  /// per-query options — worker cap (a WorkerCapScope around the query, so
  /// the global cap is never touched), wall-clock budget / cancel token
  /// (best-effort early termination with Answer::truncated set), List result
  /// limit, and witness suppression. A default-options Query behaves exactly
  /// like the matching named method below; the named methods are thin
  /// wrappers over this.
  [[nodiscard]] Answer run(const Query& query) const;

  /// run() with telemetry: when `trace` is non-null the engine records
  /// Prepare and Search spans into it and annotates the search — algorithm,
  /// kernel backend, dense-vs-CSR routing, and the CliqueStats work counters
  /// (recursive_calls, leaf_work, ...). Also feeds the per-kind registry
  /// metrics (c3_queries_total{kind=...}, c3_query_seconds{kind=...}) when
  /// telemetry is enabled; a null trace with obs off costs one branch.
  [[nodiscard]] Answer run(const Query& query, obs::TraceContext* trace) const;

  /// Counts all k-cliques.
  [[nodiscard]] CliqueResult count(int k) const;

  /// Lists all k-cliques through `callback` (see CliqueCallback).
  [[nodiscard]] CliqueResult list(int k, const CliqueCallback& callback) const;

  /// Counts k-cliques for every k = 1..min(kmax, omega) with one shared
  /// preparation; kmax = 0 means "up to the clique number".
  [[nodiscard]] CliqueSpectrum spectrum(int kmax = 0) const;

  /// counts[v] = number of k-cliques containing v.
  [[nodiscard]] std::vector<count_t> per_vertex_counts(int k) const;

  /// counts[e] = number of k-cliques containing edge e (graph edge ids).
  [[nodiscard]] std::vector<count_t> per_edge_counts(int k) const;

  /// True iff the graph contains a k-clique (early-exit listing).
  [[nodiscard]] bool has_clique(int k) const;

  /// Some k-clique, or nullopt if none exists.
  [[nodiscard]] std::optional<std::vector<node_t>> find_clique(int k) const;

  /// The clique number omega, by binary search over has_clique in
  /// [2, clique_number_upper_bound()].
  [[nodiscard]] node_t max_clique_size() const;

  /// A maximum clique (empty for the empty graph).
  [[nodiscard]] std::vector<node_t> max_clique() const;

  // ---------------------------------------------- plan control / inspection

  /// Forces the algorithm's artifacts to exist now, so later queries report
  /// preprocess_seconds == 0. Idempotent and safe to race with queries.
  void prepare() const;

  /// Cumulative seconds spent building artifacts so far.
  [[nodiscard]] double prepare_seconds() const noexcept;

  /// How many artifacts (vertex order + DAG, communities, edge order, exact
  /// degeneracy) have been built so far. Each is built at most once no
  /// matter how many queries race for it — the build-exactly-once guarantee
  /// the concurrency tests assert.
  [[nodiscard]] int artifacts_built() const noexcept;

  // The built-artifact views the snapshot writer serializes. nullptr /
  // nullopt when the artifact has not been built (or installed) yet. Safe to
  // call concurrently with queries: an artifact becomes visible only after
  // its build completes. Call prepare() first to force the algorithm's set.
  [[nodiscard]] const Digraph* dag_if_built() const noexcept;
  [[nodiscard]] const EdgeCommunities* communities_if_built() const noexcept;
  [[nodiscard]] const EdgeOrderResult* edge_order_if_built() const noexcept;
  [[nodiscard]] std::optional<node_t> exact_degeneracy_if_built() const noexcept;

  /// An upper bound on the clique number derived from the prepared
  /// artifacts: gamma + 2 (c3List), sigma + 2 (c3List-CD), max out-degree
  /// + 1 (orientation-based), degeneracy + 1 otherwise.
  [[nodiscard]] node_t clique_number_upper_bound() const;

  /// Candidate-set bound for the scheduler's cost model
  /// (estimate_query_cost): the largest community when built, else the
  /// DAG's max out-degree when built, else a sqrt(2m) graph proxy. Never
  /// triggers preparation; the underlying O(n)/O(m) scan runs at most once
  /// per artifact state (cached, keyed by artifacts_built()), so per-query
  /// estimates cost a couple of atomic loads.
  [[nodiscard]] double cost_bound() const noexcept;

  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }
  [[nodiscard]] const CliqueOptions& options() const noexcept { return opts_; }

 private:
  // All lazily memoized state lives behind one pointer: the once-latches
  // that serialize artifact construction, the artifacts themselves, the
  // prepare-time accounting, and the per-query scratch pool. Heap-held so
  // the engine stays movable (std::once_flag is not) and so in-flight
  // queries on other threads keep a stable address.
  struct Memo;

  // The `prep` out-parameters accumulate seconds of preparation performed by
  // *this call* — the building query; threads that merely wait on the latch
  // add nothing. execute() forwards the sum into stats.preprocess_seconds.
  // `limit` is the query's armed budget / cancel limit, or null.
  [[nodiscard]] CliqueResult execute(int k, const CliqueCallback* callback,
                                     QueryLimit* limit) const;
  [[nodiscard]] CliqueResult dispatch(int k, const CliqueCallback* callback, QueryLimit* limit,
                                      double& prep) const;
  void run_max_clique(const Query& query, Answer& answer, QueryLimit& limit) const;
  [[nodiscard]] const Digraph& dag(double& prep) const;
  [[nodiscard]] const EdgeCommunities& communities(double& prep) const;
  [[nodiscard]] const EdgeOrderResult& edge_order(double& prep) const;
  [[nodiscard]] node_t exact_degeneracy(double& prep) const;
  [[nodiscard]] node_t upper_bound(double& prep) const;

  const Graph* g_;
  CliqueOptions opts_;
  std::unique_ptr<Memo> memo_;
};

}  // namespace c3
