#include "clique/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "clique/api.hpp"
#include "clique/arbcount.hpp"
#include "clique/bruteforce.hpp"
#include "clique/c3list.hpp"
#include "clique/c3list_cd.hpp"
#include "clique/hybrid.hpp"
#include "clique/kclist.hpp"
#include "clique/order_util.hpp"
#include "clique/recursive.hpp"
#include "obs/metrics.hpp"
#include "order/approx_degeneracy.hpp"
#include "order/degeneracy.hpp"
#include "parallel/parallel.hpp"
#include "parallel/scratch_pool.hpp"
#include "util/bitkernels.hpp"
#include "util/timer.hpp"

namespace c3 {
namespace {

/// Trivial clique sizes that need no prepared artifacts. k <= 0 -> none;
/// k == 1 -> vertices; k == 2 -> edges.
bool trivial_k(const Graph& g, int k, const CliqueCallback* callback, CliqueResult& out) {
  if (k > 2) return false;
  if (k <= 0) return true;
  if (k == 1) {
    out.count = g.num_nodes();
    if (callback != nullptr) {
      out.count = 0;
      for (node_t v = 0; v < g.num_nodes(); ++v) {
        const node_t clique[] = {v};
        ++out.count;
        if (!(*callback)(clique)) break;
      }
    }
    out.stats.cliques = out.count;
    return true;
  }
  out.count = g.num_edges();
  if (callback != nullptr) {
    out.count = 0;
    for (const Edge& e : g.endpoints()) {
      const node_t clique[] = {e.u, e.v};
      ++out.count;
      if (!(*callback)(clique)) break;
    }
  }
  out.stats.cliques = out.count;
  return true;
}

}  // namespace

// Thread-safety of lazy preparation: each artifact is guarded by its own
// std::once_flag. The first query to need it runs the build inside
// call_once while concurrent queries block on the latch; the optional is
// written only inside the latched region and read only after it, so reads
// need no further synchronization. Timing: the builder adds the elapsed
// seconds to the engine-wide total *and* to its own query's `prep`
// accumulator — waiting queries report 0, preserving the "preprocess cost
// is attributed to the query that paid it" contract under concurrency.
struct PreparedGraph::Memo {
  std::once_flag dag_once, comms_once, edge_order_once, degeneracy_once;
  std::optional<Digraph> dag;
  std::optional<EdgeCommunities> comms;
  std::optional<EdgeOrderResult> edge_order;
  std::optional<node_t> exact_degeneracy;
  // Published state of each optional above (set with release after the value
  // is written): lets the snapshot writer's *_if_built accessors read the
  // artifacts without taking the latch, racing safely with builders.
  std::atomic<bool> dag_ready{false}, comms_ready{false}, edge_order_ready{false},
      degeneracy_ready{false};
  std::atomic<double> prepare_seconds{0.0};
  std::atomic<int> artifacts_built{0};
  // Cached cost_bound(): value, keyed by the artifacts_built count it was
  // computed under (-1 = never computed). Racing recomputes are benign —
  // every thread derives the same value for the same artifact state.
  std::atomic<double> cost_bound_value{0.0};
  std::atomic<int> cost_bound_key{-1};
  ScratchPool<QueryScratch> pool;

  /// Runs `build` at most once behind `flag`, with the accounting contract
  /// in one place: the builder's elapsed time lands in the engine-wide
  /// total, the artifact counter, and the building query's `prep`.
  template <typename Build>
  void build_once(std::once_flag& flag, std::atomic<bool>& ready, double& prep, Build&& build) {
    std::call_once(flag, [&] {
      WallTimer timer;
      build();
      const double s = timer.seconds();
      ready.store(true, std::memory_order_release);
      prepare_seconds.fetch_add(s, std::memory_order_relaxed);
      artifacts_built.fetch_add(1, std::memory_order_relaxed);
      prep += s;
    });
  }

  /// Installs an already-built artifact (the snapshot loader's path): fires
  /// the latch with a plain move — no build, no time — so later queries see
  /// it as prepared. Counts toward artifacts_built like a lazy build would.
  template <typename T, typename Opt>
  void install(std::once_flag& flag, std::atomic<bool>& ready, Opt& slot, T&& value) {
    std::call_once(flag, [&] {
      slot.emplace(std::forward<T>(value));
      ready.store(true, std::memory_order_release);
      artifacts_built.fetch_add(1, std::memory_order_relaxed);
    });
  }
};

PreparedGraph::PreparedGraph(const Graph& g, const CliqueOptions& opts)
    : g_(&g), opts_(opts), memo_(std::make_unique<Memo>()) {}

PreparedGraph::PreparedGraph(const Graph& g, const CliqueOptions& opts, PreparedArtifacts loaded)
    : PreparedGraph(g, opts) {
  if (loaded.dag.has_value()) {
    memo_->install(memo_->dag_once, memo_->dag_ready, memo_->dag, *std::move(loaded.dag));
  }
  if (loaded.communities.has_value()) {
    memo_->install(memo_->comms_once, memo_->comms_ready, memo_->comms,
                   *std::move(loaded.communities));
  }
  if (loaded.edge_order.has_value()) {
    memo_->install(memo_->edge_order_once, memo_->edge_order_ready, memo_->edge_order,
                   *std::move(loaded.edge_order));
  }
  if (loaded.exact_degeneracy.has_value()) {
    memo_->install(memo_->degeneracy_once, memo_->degeneracy_ready, memo_->exact_degeneracy,
                   *loaded.exact_degeneracy);
  }
}

PreparedGraph::PreparedGraph(PreparedGraph&&) noexcept = default;
PreparedGraph& PreparedGraph::operator=(PreparedGraph&&) noexcept = default;
PreparedGraph::~PreparedGraph() = default;

double PreparedGraph::prepare_seconds() const noexcept {
  return memo_->prepare_seconds.load(std::memory_order_relaxed);
}

int PreparedGraph::artifacts_built() const noexcept {
  return memo_->artifacts_built.load(std::memory_order_relaxed);
}

const Digraph* PreparedGraph::dag_if_built() const noexcept {
  return memo_->dag_ready.load(std::memory_order_acquire) ? &*memo_->dag : nullptr;
}

const EdgeCommunities* PreparedGraph::communities_if_built() const noexcept {
  return memo_->comms_ready.load(std::memory_order_acquire) ? &*memo_->comms : nullptr;
}

const EdgeOrderResult* PreparedGraph::edge_order_if_built() const noexcept {
  return memo_->edge_order_ready.load(std::memory_order_acquire) ? &*memo_->edge_order : nullptr;
}

std::optional<node_t> PreparedGraph::exact_degeneracy_if_built() const noexcept {
  if (!memo_->degeneracy_ready.load(std::memory_order_acquire)) return std::nullopt;
  return memo_->exact_degeneracy;
}

const Digraph& PreparedGraph::dag(double& prep) const {
  memo_->build_once(memo_->dag_once, memo_->dag_ready, prep, [&] {
    std::vector<node_t> order;
    switch (opts_.algorithm) {
      case Algorithm::ArbCount:
        // ArbCount's paper-native default is the (2+eps)-approximate order.
        order = make_vertex_order(*g_, opts_.vertex_order, opts_.eps,
                                  VertexOrderKind::ApproxDegeneracy, opts_.order_seed);
        break;
      case Algorithm::Hybrid:
        // The hybrid's outer order is always the low-depth approximate one;
        // the exact degeneracy order is recomputed per out-neighborhood
        // inside the search (Section 4.2).
        order = approx_degeneracy_order(*g_, opts_.eps).order;
        break;
      default:
        order = make_vertex_order(*g_, opts_.vertex_order, opts_.eps,
                                  VertexOrderKind::ExactDegeneracy, opts_.order_seed);
        break;
    }
    memo_->dag.emplace(Digraph::orient(*g_, order));
  });
  return *memo_->dag;
}

const EdgeCommunities& PreparedGraph::communities(double& prep) const {
  const Digraph& d = dag(prep);  // built (and attributed) first
  memo_->build_once(memo_->comms_once, memo_->comms_ready, prep,
                    [&] { memo_->comms.emplace(EdgeCommunities::build(d)); });
  return *memo_->comms;
}

const EdgeOrderResult& PreparedGraph::edge_order(double& prep) const {
  memo_->build_once(memo_->edge_order_once, memo_->edge_order_ready, prep, [&] {
    memo_->edge_order.emplace(opts_.edge_order == EdgeOrderKind::ExactCommunityDegeneracy
                                  ? community_degeneracy_order(*g_)
                                  : approx_community_degeneracy_order(*g_, opts_.eps));
  });
  return *memo_->edge_order;
}

node_t PreparedGraph::exact_degeneracy(double& prep) const {
  memo_->build_once(memo_->degeneracy_once, memo_->degeneracy_ready, prep,
                    [&] { memo_->exact_degeneracy = degeneracy_order(*g_).degeneracy; });
  return *memo_->exact_degeneracy;
}

void PreparedGraph::prepare() const {
  double prep = 0.0;
  switch (opts_.algorithm) {
    case Algorithm::C3List:
      (void)communities(prep);
      break;
    case Algorithm::C3ListCD:
      (void)edge_order(prep);
      break;
    case Algorithm::Hybrid:
    case Algorithm::KCList:
    case Algorithm::ArbCount:
      (void)dag(prep);
      break;
    case Algorithm::BruteForce:
      break;
  }
}

node_t PreparedGraph::upper_bound(double& prep) const {
  if (g_->num_nodes() == 0) return 0;
  if (g_->num_edges() == 0) return 1;
  switch (opts_.algorithm) {
    case Algorithm::C3List:
      // A k-clique needs a community of k-2 (Observation 1).
      return communities(prep).max_size() + 2;
    case Algorithm::C3ListCD:
      // Its lowest-ordered edge has the remaining k-2 vertices in V'(e).
      return edge_order(prep).sigma + 2;
    case Algorithm::Hybrid:
    case Algorithm::KCList:
    case Algorithm::ArbCount:
      // The clique's lowest-ranked vertex sees the rest in N+(v).
      return dag(prep).max_out_degree() + 1;
    case Algorithm::BruteForce:
      break;
  }
  // omega <= s + 1 for an s-degenerate graph.
  return exact_degeneracy(prep) + 1;
}

node_t PreparedGraph::clique_number_upper_bound() const {
  double prep = 0.0;  // cost still accrues to prepare_seconds()
  return upper_bound(prep);
}

double PreparedGraph::cost_bound() const noexcept {
  const int built = memo_->artifacts_built.load(std::memory_order_acquire);
  if (memo_->cost_bound_key.load(std::memory_order_acquire) == built) {
    return memo_->cost_bound_value.load(std::memory_order_relaxed);
  }
  double bound = std::sqrt(std::max(0.0, 2.0 * static_cast<double>(g_->num_edges())));
  if (const Digraph* d = dag_if_built()) bound = static_cast<double>(d->max_out_degree());
  if (const EdgeCommunities* c = communities_if_built()) {
    bound = static_cast<double>(c->max_size());
  }
  // Value before key, so a reader that matches the key sees this value (or
  // a concurrent equal one).
  memo_->cost_bound_value.store(bound, std::memory_order_relaxed);
  memo_->cost_bound_key.store(built, std::memory_order_release);
  return bound;
}

CliqueResult PreparedGraph::dispatch(int k, const CliqueCallback* callback, QueryLimit* limit,
                                     double& prep) const {
  // Artifacts first (their builds are attributed to `prep`), then a leased
  // scratch carrying the query's limit.
  const auto lease = [&] {
    ScratchLease l = memo_->pool.acquire();
    l->limit = limit;
    return l;
  };
  switch (opts_.algorithm) {
    case Algorithm::C3List: {
      const Digraph& d = dag(prep);
      const EdgeCommunities& c = communities(prep);
      return c3list_search(d, c, k, callback, opts_, *lease());
    }
    case Algorithm::C3ListCD: {
      const EdgeOrderResult& order = edge_order(prep);
      return c3list_cd_search(*g_, order, k, callback, opts_, *lease());
    }
    case Algorithm::Hybrid: {
      const Digraph& d = dag(prep);
      return hybrid_search(d, k, callback, opts_, *lease());
    }
    case Algorithm::KCList: {
      const Digraph& d = dag(prep);
      return kclist_search(d, k, callback, opts_, *lease());
    }
    case Algorithm::ArbCount: {
      const Digraph& d = dag(prep);
      return arbcount_search(d, k, callback, opts_, *lease());
    }
    case Algorithm::BruteForce: {
      CliqueResult r;
      WallTimer timer;
      r.count = callback != nullptr ? brute_force_list(*g_, k, *callback, limit)
                                    : brute_force_count(*g_, k, limit);
      r.stats.cliques = r.count;
      r.stats.search_seconds = timer.seconds();
      return r;
    }
  }
  throw std::invalid_argument("PreparedGraph: unknown algorithm");
}

CliqueResult PreparedGraph::execute(int k, const CliqueCallback* callback,
                                    QueryLimit* limit) const {
  double prep = 0.0;
  CliqueResult result;
  if (!trivial_k(*g_, k, callback, result)) result = dispatch(k, callback, limit, prep);
  // Only preparation performed during *this* query; 0 on reuse or when
  // another query built the artifacts while we waited.
  result.stats.preprocess_seconds = prep;
  return result;
}

Answer PreparedGraph::run(const Query& query) const {
  // The per-query worker cap applies to this thread's parallel loops only —
  // the process-global cap is never touched, so concurrent queries with
  // different caps cannot race (see parallel.hpp WorkerCapScope).
  const WorkerCapScope cap(query.opts.max_workers);
  // Budget and cancel token ride the search's own stop flag: the searches
  // poll the limit per top-level task (token) and per recursion on a clock
  // stride, so every kind searches exactly as it would unlimited — Count and
  // Spectrum on the pure counting path — until the limit trips.
  QueryLimit limit(query.opts.cancel.get(), query.opts.budget_seconds);
  QueryLimit* const armed = limit.armed() ? &limit : nullptr;

  Answer answer;
  answer.kind = query.kind;
  answer.k = query.k;
  WallTimer timer;

  switch (query.kind) {
    case QueryKind::Count: {
      const CliqueResult r = execute(query.k, nullptr, armed);
      answer.count = r.count;
      answer.stats = r.stats;
      answer.truncated = limit.was_tripped();
      break;
    }
    case QueryKind::List: {
      std::mutex guard;
      bool excess = false;  // a clique beyond the limit was actually seen
      const count_t max_cliques = query.opts.result_limit;
      const CliqueCallback collect = [&](std::span<const node_t> clique) {
        const std::lock_guard<std::mutex> lock(guard);
        if (max_cliques > 0 && answer.cliques.size() >= static_cast<std::size_t>(max_cliques)) {
          // Only an over-limit emission proves the listing is incomplete — a
          // graph with exactly `max_cliques` cliques finishes untruncated.
          excess = true;
          return false;
        }
        answer.cliques.emplace_back(clique.begin(), clique.end());
        return true;
      };
      const CliqueResult r = execute(query.k, &collect, armed);
      answer.stats = r.stats;
      answer.count = static_cast<count_t>(answer.cliques.size());
      answer.truncated = limit.was_tripped() || excess;
      break;
    }
    case QueryKind::HasClique:
    case QueryKind::FindClique: {
      if (query.k <= 0) break;  // no 0-clique by convention (found stays false)
      std::mutex guard;
      bool found = false;
      std::optional<std::vector<node_t>> witness;
      const bool want = query.kind == QueryKind::FindClique && query.opts.want_witness;
      const CliqueCallback stop_at_first = [&](std::span<const node_t> clique) {
        const std::lock_guard<std::mutex> lock(guard);
        found = true;
        if (want && !witness.has_value()) witness.emplace(clique.begin(), clique.end());
        return false;  // stop the enumeration
      };
      const CliqueResult r = execute(query.k, &stop_at_first, armed);
      answer.stats = r.stats;
      answer.found = found;
      if (witness.has_value()) answer.witness = std::move(*witness);
      // An aborted fruitless probe proves nothing; a found witness stands.
      answer.truncated = !found && limit.was_tripped();
      break;
    }
    case QueryKind::PerVertexCounts: {
      std::vector<std::atomic<count_t>> acc(g_->num_nodes());
      const CliqueCallback tally = [&](std::span<const node_t> clique) {
        for (const node_t v : clique) acc[v].fetch_add(1, std::memory_order_relaxed);
        return true;
      };
      const CliqueResult r = execute(query.k, &tally, armed);
      answer.stats = r.stats;
      answer.per_counts.resize(g_->num_nodes());
      for (node_t v = 0; v < g_->num_nodes(); ++v) {
        answer.per_counts[v] = acc[v].load(std::memory_order_relaxed);
      }
      answer.truncated = limit.was_tripped();
      break;
    }
    case QueryKind::PerEdgeCounts: {
      std::vector<std::atomic<count_t>> acc(g_->num_edges());
      const CliqueCallback tally = [&](std::span<const node_t> clique) {
        for (std::size_t i = 0; i < clique.size(); ++i) {
          for (std::size_t j = i + 1; j < clique.size(); ++j) {
            const edge_t e = g_->edge_id(clique[i], clique[j]);
            acc[e].fetch_add(1, std::memory_order_relaxed);
          }
        }
        return true;
      };
      const CliqueResult r = execute(query.k, &tally, armed);
      answer.stats = r.stats;
      answer.per_counts.resize(g_->num_edges());
      for (edge_t e = 0; e < g_->num_edges(); ++e) {
        answer.per_counts[e] = acc[e].load(std::memory_order_relaxed);
      }
      answer.truncated = limit.was_tripped();
      break;
    }
    case QueryKind::Spectrum: {
      CliqueSpectrum& out = answer.spectrum;
      [&] {
        out.counts.assign(2, 0);
        if (g_->num_nodes() == 0) return;
        out.counts[1] = g_->num_nodes();
        out.omega = 1;
        // kmax clamps the trivial sizes too ("every k = 1..min(kmax, omega)").
        if (g_->num_edges() == 0 || query.kmax == 1) return;
        out.counts.push_back(g_->num_edges());
        out.omega = 2;
        // The k >= 3 loop below could never run; don't build artifacts for it.
        if (query.kmax == 2) return;

        double prep = 0.0;
        const auto ub = static_cast<int>(upper_bound(prep));
        const int kmax = query.kmax > 0 ? std::min(query.kmax, ub) : ub;
        for (int k = 3; k <= kmax; ++k) {
          if (limit.expired()) {
            answer.truncated = true;
            break;
          }
          // The limit can cut inside a k; a cut k's partial count is dropped.
          const CliqueResult r = dispatch(k, nullptr, armed, prep);
          out.search_seconds += r.stats.search_seconds;
          if (limit.was_tripped()) {
            answer.truncated = true;
            break;
          }
          if (r.count == 0) break;
          out.counts.push_back(r.count);
          out.omega = static_cast<node_t>(k);
        }
        out.preprocess_seconds = prep;
      }();
      answer.stats.preprocess_seconds = out.preprocess_seconds;
      answer.stats.search_seconds = out.search_seconds;
      answer.omega = out.omega;
      answer.count = out.counts.empty() ? 0 : out.counts.back();
      break;
    }
    case QueryKind::MaxClique:
      run_max_clique(query, answer, limit);
      break;
  }
  answer.seconds = timer.seconds();
  return answer;
}

namespace {

/// Per-kind registry series, resolved once (the registry lookup takes a
/// mutex; the hot path must not).
struct KindMetrics {
  obs::Counter* total;
  obs::Histogram* seconds;
};

KindMetrics& kind_metrics(QueryKind kind) {
  static std::array<KindMetrics, 8> table = [] {
    std::array<KindMetrics, 8> t{};
    for (std::size_t i = 0; i < t.size(); ++i) {
      const std::string labels =
          std::string("kind=\"") + query_kind_name(static_cast<QueryKind>(i)) + "\"";
      t[i] = {&obs::Registry::global().counter("c3_queries_total", labels),
              &obs::Registry::global().histogram("c3_query_seconds", labels)};
    }
    return t;
  }();
  return table[static_cast<std::size_t>(kind)];
}

}  // namespace

Answer PreparedGraph::run(const Query& query, obs::TraceContext* trace) const {
  const bool telemetry = obs::enabled();
  if (trace == nullptr && !telemetry) return run(query);

  const std::uint64_t search_start_ns = trace != nullptr ? trace->now_ns() : 0;
  const Answer answer = run(query);

  if (trace != nullptr) {
    const std::uint64_t end_ns = trace->now_ns();
    // Preparation runs inside the search (lazily, at its start); report it
    // as a sub-span so the trace shows the first-query build cost that the
    // reuse guarantee later makes vanish.
    const auto prep_ns = static_cast<std::uint64_t>(
        std::max(0.0, answer.stats.preprocess_seconds) * 1e9);
    if (prep_ns > 0) trace->add_span(obs::Stage::Prepare, search_start_ns, prep_ns);
    trace->add_span(obs::Stage::Search, search_start_ns,
                    end_ns > search_start_ns ? end_ns - search_start_ns : 0);
    trace->mark_truncated(answer.truncated);
    trace->annotate("algorithm", algorithm_name(opts_.algorithm));
    // The backend also picks the recursion build (DESIGN.md §7).
    const bits::KernelBackend backend = bits::active_kernel_backend();
    trace->annotate("kernel_backend", bits::kernel_backend_name(backend));
    trace->annotate("search_build", search_build_name(backend));
    const CliqueStats& s = answer.stats;
    // dense_subproblems counts the searches routed to the bitset local-graph
    // path; with top_level_tasks it answers "which representation ran".
    trace->annotate("dense_subproblems", std::to_string(s.dense_subproblems));
    trace->annotate("top_level_tasks", std::to_string(s.top_level_tasks));
    trace->annotate("recursive_calls", std::to_string(s.recursive_calls));
    // Complete candidate sets a count took as one binomial: with the pivot
    // trees, why its work counters can sit far below its leaf_work.
    trace->annotate("closed_form_sets", std::to_string(s.closed_form_sets));
    trace->annotate("pairs_probed", std::to_string(s.pairs_probed));
    trace->annotate("edges_matched", std::to_string(s.edges_matched));
    trace->annotate("intersection_words", std::to_string(s.intersection_words));
    trace->annotate("leaf_work", std::to_string(s.leaf_work));
    trace->annotate("count", std::to_string(answer.count));
  }

  if (telemetry) {
    KindMetrics& m = kind_metrics(query.kind);
    m.total->add();
    m.seconds->observe(answer.seconds);
  }
  return answer;
}

void PreparedGraph::run_max_clique(const Query& query, Answer& answer, QueryLimit& limit) const {
  if (g_->num_nodes() == 0) return;  // omega 0, no witness
  if (g_->num_edges() == 0) {
    answer.omega = 1;
    if (query.opts.want_witness) answer.witness = {0};
    answer.found = true;
    return;
  }

  // Binary search over "does a mid-clique exist" in [2, upper bound]. Each
  // successful probe keeps its witness when one is wanted, so the final
  // answer usually needs no extra search.
  const bool want = query.opts.want_witness;
  std::optional<std::vector<node_t>> best;
  const auto probe = [&](node_t size) -> std::optional<std::vector<node_t>> {
    std::mutex guard;
    bool found = false;
    std::optional<std::vector<node_t>> witness;
    const CliqueCallback stop_at_first = [&](std::span<const node_t> clique) {
      const std::lock_guard<std::mutex> lock(guard);
      found = true;
      if (want && !witness.has_value()) witness.emplace(clique.begin(), clique.end());
      return false;
    };
    (void)execute(static_cast<int>(size), &stop_at_first, limit.armed() ? &limit : nullptr);
    if (!found) return std::nullopt;
    if (!want) return std::vector<node_t>{};  // marker: found, witness unwanted
    return witness;
  };

  node_t lo = 2;  // always feasible: the graph has an edge
  node_t hi = clique_number_upper_bound();
  while (lo < hi) {
    if (limit.expired()) {
      answer.truncated = true;
      break;
    }
    const node_t mid = lo + (hi - lo + 1) / 2;
    std::optional<std::vector<node_t>> witness = probe(mid);
    if (witness.has_value()) {
      lo = mid;
      best = std::move(witness);
    } else {
      if (limit.was_tripped()) {
        // The probe was cut short before finding anything: "no mid-clique"
        // is unproven, so stop with the best verified bound.
        answer.truncated = true;
        break;
      }
      hi = mid - 1;
    }
  }
  answer.omega = lo;

  if (want) {
    if (best.has_value() && best->size() == static_cast<std::size_t>(lo)) {
      // A verified lo-clique is already in hand — hand it out even when the
      // budget cut the search short (a truncated answer is a valid partial:
      // omega is a proven lower bound and the witness proves it).
      answer.witness = std::move(*best);
    } else if (!answer.truncated) {
      if (auto witness = probe(lo); witness.has_value()) {
        answer.witness = std::move(*witness);
      } else if (limit.was_tripped()) {
        // The final witness search itself was cut before finding anything.
        answer.truncated = true;
      }
    }
  }
  answer.found = want ? !answer.witness.empty() : answer.omega > 0;
}

// ------------------------------------------------- named wrappers over run()

CliqueResult PreparedGraph::count(int k) const {
  Query q;
  q.kind = QueryKind::Count;
  q.k = k;
  const Answer a = run(q);
  CliqueResult r;
  r.count = a.count;
  r.stats = a.stats;
  return r;
}

CliqueResult PreparedGraph::list(int k, const CliqueCallback& callback) const {
  // The callback primitive run()'s enumeration kinds are built on — the one
  // named method that is not a Query wrapper (a std::function cannot
  // round-trip through the Query value type).
  return execute(k, &callback, nullptr);
}

CliqueSpectrum PreparedGraph::spectrum(int kmax) const {
  Query q;
  q.kind = QueryKind::Spectrum;
  q.kmax = kmax;
  Answer a = run(q);
  return std::move(a.spectrum);
}

std::vector<count_t> PreparedGraph::per_vertex_counts(int k) const {
  Query q;
  q.kind = QueryKind::PerVertexCounts;
  q.k = k;
  Answer a = run(q);
  return std::move(a.per_counts);
}

std::vector<count_t> PreparedGraph::per_edge_counts(int k) const {
  Query q;
  q.kind = QueryKind::PerEdgeCounts;
  q.k = k;
  Answer a = run(q);
  return std::move(a.per_counts);
}

bool PreparedGraph::has_clique(int k) const {
  Query q;
  q.kind = QueryKind::HasClique;
  q.k = k;
  return run(q).found;
}

std::optional<std::vector<node_t>> PreparedGraph::find_clique(int k) const {
  Query q;
  q.kind = QueryKind::FindClique;
  q.k = k;
  Answer a = run(q);
  if (!a.found) return std::nullopt;
  return std::move(a.witness);
}

node_t PreparedGraph::max_clique_size() const {
  Query q;
  q.kind = QueryKind::MaxClique;
  q.opts.want_witness = false;  // omega only — skip the witness search
  return run(q).omega;
}

std::vector<node_t> PreparedGraph::max_clique() const {
  Query q;
  q.kind = QueryKind::MaxClique;
  Answer a = run(q);
  return std::move(a.witness);
}

}  // namespace c3
