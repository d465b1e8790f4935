// Query-lifecycle tracing: per-request stage spans, a ring buffer of recent
// traces, and the slow-query log.
//
// Every request through the serving stack carries one TraceContext. The
// layers it crosses each record a *stage span* — parse, admission wait,
// cache lookup, prepare, search, format, socket write — plus search-side
// annotations (algorithm, search build, dense-vs-CSR routing, the
// CliqueStats work counters), so one record answers "where did this
// request's time go" the way the paper's per-phase tables answer it for a
// whole run. A context is owned by exactly one connection thread; recording
// into it takes no locks.
//
// When a context finishes (explicitly or on destruction) it
//   1. feeds each span's duration into the per-stage latency histograms
//      (obs/metrics.hpp: c3_stage_seconds{stage=...}) — that is where the
//      `metrics` admin word's p50/p95/p99 come from,
//   2. publishes the trace into the global TraceRing (a bounded buffer of
//      recent traces, exportable as chrome://tracing JSON via the `trace`
//      admin word and `c3tool trace`),
//   3. hands it to the SlowQueryLog, which emits one structured line when
//      the request exceeded the configured threshold.
//
// Everything is disabled together with obs::enabled(): callers pass a null
// TraceContext* and every hook here tolerates null, so the instrumented
// code has no conditional paths of its own.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace c3::obs {

/// The stages of one request's lifecycle, in wire order.
enum class Stage : std::uint8_t {
  Parse,          ///< request line split + query grammar parse
  AdmissionWait,  ///< blocked on the per-graph admission gate
  CacheLookup,    ///< answer-cache probe
  Prepare,        ///< artifact preparation paid by this request
  Search,         ///< the engine's search (PreparedGraph::run)
  Format,         ///< answer -> wire text
  SocketWrite,    ///< response write on the connection
};
inline constexpr std::size_t kStageCount = 7;

[[nodiscard]] const char* stage_name(Stage s) noexcept;

/// One recorded stage interval, in nanoseconds relative to the trace start.
struct Span {
  Stage stage = Stage::Parse;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
};

/// A finished trace as stored in the ring: identification, outcome flags,
/// spans, and free-form annotations (small key/value list).
struct TraceRecord {
  std::uint64_t request_id = 0;
  std::uint64_t start_epoch_us = 0;  ///< process-relative monotonic start
  std::string graph_id;
  std::string query_text;
  bool error = false;
  bool cache_hit = false;
  bool truncated = false;
  std::vector<Span> spans;
  std::vector<std::pair<std::string, std::string>> annotations;

  [[nodiscard]] std::uint64_t total_ns() const noexcept;
  /// Duration of the first span of `s` (0 when absent).
  [[nodiscard]] std::uint64_t stage_ns(Stage s) const noexcept;
};

/// The per-request recording surface. Created when the request line arrives;
/// finish() (or the destructor) publishes. Single-threaded by construction —
/// the connection thread owns it for the request's whole lifetime.
class TraceContext {
 public:
  TraceContext(std::string graph_id, std::string query_text);
  ~TraceContext();  // finishes if finish() was not called
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// Nanoseconds since this trace started (monotonic clock).
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  /// RAII span: records `stage` from construction to destruction. A null
  /// context records nothing, so call sites need no branching.
  class Scope {
   public:
    Scope(TraceContext* trace, Stage stage) noexcept
        : trace_(trace), stage_(stage), start_ns_(trace != nullptr ? trace->now_ns() : 0) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span now (idempotent; the destructor becomes a no-op).
    void close() noexcept {
      if (trace_ != nullptr) {
        trace_->add_span(stage_, start_ns_, trace_->now_ns() - start_ns_);
        trace_ = nullptr;
      }
    }

   private:
    TraceContext* trace_;
    Stage stage_;
    std::uint64_t start_ns_;
  };

  void add_span(Stage stage, std::uint64_t start_ns, std::uint64_t duration_ns);
  void annotate(std::string_view key, std::string value);

  void set_graph(std::string graph_id);
  void set_query(std::string query_text);
  void mark_error() noexcept { record_.error = true; }
  void mark_cache_hit() noexcept { record_.cache_hit = true; }
  void mark_truncated(bool t) noexcept { record_.truncated = t; }

  [[nodiscard]] const TraceRecord& record() const noexcept { return record_; }

  /// Publishes: per-stage histograms, the ring, the slow-query log.
  /// Idempotent; called by the destructor when skipped.
  void finish();

 private:
  TraceRecord record_;
  std::uint64_t start_steady_ns_ = 0;
  bool finished_ = false;
};

/// Bounded buffer of the most recent finished traces. push() is mutex-
/// serialized — publication happens once per request, far off the hot path.
class TraceRing {
 public:
  static TraceRing& global();

  explicit TraceRing(std::size_t capacity = 256);
  void set_capacity(std::size_t capacity);
  void push(TraceRecord record);
  void clear();
  [[nodiscard]] std::size_t size() const;
  /// Oldest first.
  [[nodiscard]] std::vector<TraceRecord> snapshot() const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Renders traces as a chrome://tracing / Perfetto-loadable JSON object
/// ({"traceEvents":[...]}): one complete ("ph":"X") event per span, tid =
/// request id, timestamps in microseconds, annotations in the search span's
/// args. Single line (no newlines) so it can travel over the line protocol.
[[nodiscard]] std::string chrome_trace_json(const std::vector<TraceRecord>& traces);

/// Threshold-gated structured log of slow requests: one key=value line per
/// offending request, written to stderr or a file. configure() is expected
/// at startup (c3serve --slow-query-ms); maybe_log() is called for every
/// finished trace and returns immediately when disabled.
class SlowQueryLog {
 public:
  static SlowQueryLog& global();

  /// threshold_seconds <= 0 disables. `sink` nullptr means stderr; the
  /// caller keeps ownership of a non-null sink (must outlive logging).
  void configure(double threshold_seconds, std::FILE* sink = nullptr);
  /// Same, appending to `path` (opened here, closed on reconfigure).
  /// Returns false (and disables) when the file cannot be opened.
  bool configure_file(double threshold_seconds, const std::string& path);

  [[nodiscard]] double threshold_seconds() const noexcept;
  [[nodiscard]] std::uint64_t logged() const noexcept;

  void maybe_log(const TraceRecord& record);

  /// The one-line record format, exposed for tests and tools.
  [[nodiscard]] static std::string format_record(const TraceRecord& record);

 private:
  SlowQueryLog();
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace c3::obs
