#include "clique/batch.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "parallel/parallel.hpp"

namespace c3 {
namespace {

/// Light + heavy queries currently executing inside any QueryBatch
/// (process-global). The gauge moves unconditionally so it stays balanced
/// across obs::enabled() flips.
obs::Gauge& batch_inflight_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge("c3_batch_inflight");
  return g;
}

/// Concurrent-phase admission bar: queries whose estimated work is at most
/// this many elementary steps run on the executor threads; anything above
/// keeps the full pool in the sequential phase. Scaled to the graph so "one
/// parallel sweep's worth of work" is light on any input: ~16 steps per
/// graph element.
double heavy_threshold(const Graph& g) {
  return 16.0 * (static_cast<double>(g.num_nodes()) + static_cast<double>(g.num_edges()) + 1.0);
}

/// Whether the scheduler must force the clique-number upper-bound artifact
/// up front for `q` (spectrum and max-clique consult it; for some
/// configurations it is an artifact prepare() alone does not build).
bool needs_upper_bound(const Query& q) noexcept {
  return (q.kind == QueryKind::Spectrum && query_needs_artifacts(q)) ||
         q.kind == QueryKind::MaxClique;
}

/// The executor fan-out of QueryBatch::answers' concurrent phase: `threads`
/// std::threads pull light-query indices off a shared cursor. Each executor
/// caps its own parallel loops to pool/threads with a thread-local
/// WorkerCapScope — the process-global worker cap is never written, so
/// racing batches (or external set_num_workers callers) observe nothing.
void run_light_concurrent(const PreparedGraph& engine, const std::vector<Query>& queries,
                          const std::vector<std::size_t>& light, std::size_t threads, int pool,
                          std::vector<Answer>& results) {
  // Admission throttle: concurrent phases of different batches serialize —
  // each sizes its executor fan-out as if it owned the whole pool, so two
  // phases at once would oversubscribe the machine N-fold. (The *cap* no
  // longer needs this lock — per-thread WorkerCapScopes cannot race — this
  // is purely the throughput discipline the old global-split code provided
  // as a side effect.)
  static std::mutex phase_mutex;
  const std::lock_guard<std::mutex> phase_lock(phase_mutex);
  const int split = std::max(1, pool / static_cast<int>(threads));
  std::atomic<std::size_t> cursor{0};
  std::exception_ptr first_error;
  std::mutex error_guard;
  std::vector<std::thread> executors;
  executors.reserve(threads);
  try {
    for (std::size_t t = 0; t < threads; ++t) {
      executors.emplace_back([&] {
        const WorkerCapScope cap(split);
        for (;;) {
          const std::size_t slot = cursor.fetch_add(1, std::memory_order_relaxed);
          if (slot >= light.size()) return;
          const std::size_t i = light[slot];
          batch_inflight_gauge().add();
          try {
            results[i] = engine.run(queries[i]);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(error_guard);
            if (first_error == nullptr) first_error = std::current_exception();
          }
          batch_inflight_gauge().sub();
        }
      });
    }
  } catch (...) {
    // Thread spawn failed (e.g. EAGAIN): stop handing out work and join the
    // executors that did start — the failure surfaces as a catchable
    // exception instead of std::terminate.
    cursor.store(light.size(), std::memory_order_relaxed);
    for (std::thread& th : executors) th.join();
    throw;
  }
  for (std::thread& th : executors) th.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace

int QueryBatch::add(Query query) {
  queries_.push_back(std::move(query));
  return static_cast<int>(queries_.size()) - 1;
}

std::vector<Answer> QueryBatch::answers(int concurrency) const {
  const PreparedGraph& engine = *engine_;
  std::vector<Answer> results(queries_.size());
  if (queries_.empty()) return results;

  // Force the artifacts before any executor thread starts — but only if
  // some query can use them — so per-query seconds measure search only and
  // no thread stalls on the prepare latch. The clique-number upper bound is
  // an extra artifact for some configurations; force it too whenever a query
  // consults it.
  bool any_artifacts = false;
  bool any_upper_bound = false;
  for (const Query& q : queries_) {
    any_artifacts = any_artifacts || query_needs_artifacts(q);
    any_upper_bound = any_upper_bound || needs_upper_bound(q);
  }
  if (any_artifacts) engine.prepare();
  if (any_upper_bound) (void)engine.clique_number_upper_bound();

  // Estimated after preparation, so the cost model sees the real artifacts
  // (community sizes, DAG out-degrees) instead of graph-shape proxies.
  const double bar = heavy_threshold(engine.graph());
  std::vector<double> cost(queries_.size());
  std::vector<std::size_t> light, heavy;
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    cost[i] = estimate_query_cost(engine, queries_[i]);
    (cost[i] <= bar ? light : heavy).push_back(i);
  }

  bool light_done = false;
  if (concurrency != 1 && light.size() > 1) {
    const int pool = num_workers();
    const int want = concurrency > 0 ? concurrency : pool;
    const auto threads =
        static_cast<std::size_t>(std::clamp(want, 1, static_cast<int>(light.size())));
    if (threads > 1) {
      // Longest-estimated-first, so the final executor is not left holding
      // the slowest light query while the others idle (ties keep submission
      // order; results land at their submission index regardless).
      std::stable_sort(light.begin(), light.end(),
                       [&](std::size_t a, std::size_t b) { return cost[a] > cost[b]; });
      run_light_concurrent(engine, queries_, light, threads, pool, results);
      light_done = true;
    }
  }
  if (!light_done) {
    for (const std::size_t i : light) {
      batch_inflight_gauge().add();
      results[i] = engine.run(queries_[i]);
      batch_inflight_gauge().sub();
    }
  }

  // Sequential phase: heavy queries keep the full pool for their internal
  // parallelism (a per-query max_workers still caps inside run()).
  for (const std::size_t i : heavy) {
    batch_inflight_gauge().add();
    results[i] = engine.run(queries_[i]);
    batch_inflight_gauge().sub();
  }
  return results;
}

}  // namespace c3
