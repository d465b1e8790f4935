// LineFrontEnd — the wire protocol of c3serve, independent of any socket.
//
// One request per line, one response per line. A request is a graph id from
// the catalog followed by a query in the Query/Answer text grammar
// (query.hpp) — the exact line a query file holds, prefixed by which graph
// to ask:
//
//   social count 4 workers=2      ->  count 4: 2718 cliques
//   web maxclique witness=0       ->  maxclique: omega 9
//   web list 3 limit=2            ->  list 3: 2 cliques [truncated]
//
// plus the admin commands: `stats` (one line of counters, including the
// answer cache's hits/misses/evictions), `metrics` (Prometheus text
// exposition of the whole obs registry — the only multi-line reply, closed
// by its `# EOF` terminator line), `trace` (the recent-trace ring as one
// line of chrome://tracing JSON), `catalog` (the graph ids), `ping`
// (liveness), and `quit` (close after the reply). Blank and '#'-comment
// lines are skipped without a response. Every failure — unknown graph, parse
// error, snapshot open failure, execution error — becomes one line starting
// with "error: "; no request kills the connection.
//
// In front of execution sit the two serving-layer pieces:
//
//   * the AnswerCache (optional): before running, the request's canonical
//     key — engine fingerprint + format_query(canonical_question(q)) — is
//     looked up; a hit answers without touching the engine or an admission
//     slot. Complete answers are inserted after execution; truncated ones
//     never are.
//
//   * per-graph admission control: at most `max_inflight_per_graph`
//     requests execute per graph at a time (plus an optional
//     `max_inflight_total` across the catalog); excess requests *block*
//     rather than fail. Freed capacity is handed out as explicit grants in
//     round-robin order over the waiting graphs, so a flood against one hot
//     graph queues against that graph's slots while other graphs' waiters
//     get their fair turn at the shared budget — fairness across the
//     catalog by construction, not by condvar race.
//
// Telemetry (obs/): the serving counters live in the metrics registry as
// instance-labeled series (instance="N", one N per front end), so stats()
// and the `stats` line are *views* of the registry while concurrent front
// ends (tests, multiple servers in one process) stay isolated. When
// obs::enabled(), each query request additionally carries a TraceContext
// whose stage spans (parse, admission wait, cache lookup, prepare, search,
// format) feed the c3_stage_seconds histograms; the context rides out on
// Reply::trace so the transport can add its socket-write span before the
// trace publishes into the ring.
//
// process() is safe to call from any number of connection threads.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "clique/answer_cache.hpp"
#include "clique/service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace c3::net {

struct FrontEndOptions {
  /// Queries executing concurrently per graph; further requests for that
  /// graph block until a slot frees. >= 1.
  int max_inflight_per_graph = 4;
  /// Queries executing concurrently across the whole catalog (0 = no total
  /// cap). When contended, freed capacity is handed to waiters *round-robin
  /// across graphs* — not to whichever connection thread wins the condvar
  /// race — so a flood against one hot graph cannot starve light traffic on
  /// the others out of the shared budget.
  int max_inflight_total = 0;
};

/// Counter snapshot for stats()/the `stats` admin line. Sourced from this
/// instance's registry series (see the header comment).
struct FrontEndStats {
  std::uint64_t requests = 0;   ///< query requests (admin lines not counted)
  std::uint64_t answered = 0;   ///< successful answers (cache hits included)
  std::uint64_t cache_hits = 0; ///< answered straight from the cache
  std::uint64_t errors = 0;     ///< error: responses
  int peak_inflight = 0;        ///< max concurrent executions on any graph
  AnswerCacheStats cache;       ///< zeroed when no cache is attached
  /// Search work of the executed (not cached) answers: recursive calls, and
  /// the complete candidate sets counts took in closed form without a walk.
  std::uint64_t recursive_calls = 0;
  std::uint64_t closed_form_sets = 0;
};

class LineFrontEnd {
 public:
  /// `cache` may be nullptr (no caching). Both `service` and `cache` must
  /// outlive the front end.
  LineFrontEnd(const CliqueService& service, AnswerCache* cache, FrontEndOptions opts = {});

  struct Reply {
    std::string line;      ///< the one response line (empty if !respond)
    bool respond = true;   ///< false: blank/comment input, send nothing
    bool close = false;    ///< true after `quit`: reply, then hang up
    /// The request's trace, when tracing is on (query requests only). The
    /// transport may record its write into it (Stage::SocketWrite); the
    /// trace publishes to the ring/histograms when this pointer dies.
    std::unique_ptr<obs::TraceContext> trace;
  };

  /// Handles one request line (newline already stripped). Never throws —
  /// failures become "error: ..." replies.
  [[nodiscard]] Reply process(std::string_view line);

  [[nodiscard]] FrontEndStats stats() const;

  /// The `metrics` admin payload: Prometheus text exposition of the whole
  /// registry (instantaneous serving-layer state — cache counters, catalog
  /// size, peak inflight — is mirrored into gauges at scrape time). The
  /// final line is the `# EOF` terminator.
  [[nodiscard]] std::string metrics_text() const;

  /// Extra "key=value" text appended to the `stats` admin line — the server
  /// hooks its connection gauges in here. Set once, before traffic.
  /// Embedded newlines are folded to spaces (one-answer-per-line protocol).
  void set_stats_suffix_source(std::function<std::string()> source);

 private:
  struct GraphGate {
    int inflight = 0;
    int peak = 0;
    int waiting = 0;  ///< threads blocked in Admission for this graph
    /// Capacity grants handed to this gate's waiters but not yet consumed.
    /// Grants are issued by grant_locked() in round-robin gate order and
    /// count against both caps until the woken waiter converts its grant
    /// into an inflight slot — so a grant can never be stolen by a barger.
    int grants = 0;
    /// Per-gate condvar (all gates share gate_mutex_): freeing a slot on
    /// graph A wakes a waiter for A, never one for B — a shared condvar
    /// with notify_one could hand A's wakeup to a B-waiter whose predicate
    /// is still false, losing it and stranding A's waiter.
    std::condition_variable free_slot;
    /// Registry mirror of `inflight` (c3_graph_inflight{graph="..."}),
    /// resolved once when the gate is created.
    obs::Gauge* inflight_gauge = nullptr;
  };

  /// Blocks until an execution slot for `id` is free; RAII-released.
  class Admission;

  /// Hands freed capacity to blocked waiters, scanning the gates round-robin
  /// from rr_cursor_ and granting while both caps have room. Must hold
  /// gate_mutex_.
  void grant_locked();

  [[nodiscard]] std::uint64_t fingerprint_for(const std::string& id);
  [[nodiscard]] std::string stats_line() const;

  const CliqueService* service_;
  AnswerCache* cache_;
  FrontEndOptions opts_;
  std::function<std::string()> stats_suffix_;

  mutable std::mutex gate_mutex_;
  std::map<std::string, GraphGate, std::less<>> gates_;
  int total_inflight_ = 0;  // guarded by gate_mutex_
  int total_grants_ = 0;
  int total_waiting_ = 0;
  std::string rr_cursor_;  ///< next gate to consider for a grant

  mutable std::shared_mutex fingerprint_mutex_;
  std::unordered_map<std::string, std::uint64_t> fingerprints_;

  // This instance's registry series (instance="N" label). The request
  // counters move unconditionally — they are the serving stats, not optional
  // telemetry — so `stats` keeps working under C3_OBS=off; the off switch
  // gates tracing and the latency histograms.
  std::string instance_label_;
  obs::Counter* requests_;
  obs::Counter* answered_;
  obs::Counter* cache_hits_;
  obs::Counter* errors_;
  obs::Counter* recursive_calls_;
  obs::Counter* closed_form_sets_;
  obs::Histogram* admission_wait_;  // c3_admission_wait_seconds (shared)
};

}  // namespace c3::net
