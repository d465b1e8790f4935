#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>

#include "obs/metrics.hpp"
#include "util/table.hpp"

namespace c3::obs {
namespace {

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t next_request_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// The per-stage latency histograms the `metrics` word reports quantiles
/// from. One per stage, registered once; index by enum value.
Histogram& stage_histogram(Stage s) {
  static std::array<Histogram*, kStageCount> table = [] {
    std::array<Histogram*, kStageCount> t{};
    for (std::size_t i = 0; i < kStageCount; ++i) {
      const std::string labels =
          std::string("stage=\"") + stage_name(static_cast<Stage>(i)) + "\"";
      t[i] = &Registry::global().histogram("c3_stage_seconds", labels);
    }
    return t;
  }();
  return *table[static_cast<std::size_t>(s)];
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strfmt("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

const char* stage_name(Stage s) noexcept {
  switch (s) {
    case Stage::Parse:
      return "parse";
    case Stage::AdmissionWait:
      return "admission_wait";
    case Stage::CacheLookup:
      return "cache_lookup";
    case Stage::Prepare:
      return "prepare";
    case Stage::Search:
      return "search";
    case Stage::Format:
      return "format";
    case Stage::SocketWrite:
      return "socket_write";
  }
  return "unknown";
}

// --------------------------------------------------------------- TraceRecord

std::uint64_t TraceRecord::total_ns() const noexcept {
  std::uint64_t end = 0;
  for (const Span& s : spans) end = std::max(end, s.start_ns + s.duration_ns);
  return end;
}

std::uint64_t TraceRecord::stage_ns(Stage s) const noexcept {
  for (const Span& span : spans) {
    if (span.stage == s) return span.duration_ns;
  }
  return 0;
}

// -------------------------------------------------------------- TraceContext

TraceContext::TraceContext(std::string graph_id, std::string query_text)
    : start_steady_ns_(steady_now_ns()) {
  record_.request_id = next_request_id();
  record_.start_epoch_us = start_steady_ns_ / 1000;
  record_.graph_id = std::move(graph_id);
  record_.query_text = std::move(query_text);
  // One span per stage plus headroom, and the usual handful of search
  // annotations: reserving up front keeps the per-request record at two
  // allocations instead of a realloc per push_back.
  record_.spans.reserve(kStageCount + 1);
  record_.annotations.reserve(8);
}

TraceContext::~TraceContext() {
  if (!finished_) finish();
}

std::uint64_t TraceContext::now_ns() const noexcept {
  return steady_now_ns() - start_steady_ns_;
}

void TraceContext::add_span(Stage stage, std::uint64_t start_ns, std::uint64_t duration_ns) {
  record_.spans.push_back(Span{stage, start_ns, duration_ns});
}

void TraceContext::annotate(std::string_view key, std::string value) {
  record_.annotations.emplace_back(std::string(key), std::move(value));
}

void TraceContext::set_graph(std::string graph_id) { record_.graph_id = std::move(graph_id); }
void TraceContext::set_query(std::string query_text) {
  record_.query_text = std::move(query_text);
}

void TraceContext::finish() {
  if (finished_) return;
  finished_ = true;
  for (const Span& s : record_.spans) {
    stage_histogram(s.stage).observe(static_cast<double>(s.duration_ns) * 1e-9);
  }
  SlowQueryLog::global().maybe_log(record_);
  TraceRing::global().push(std::move(record_));
}

// ----------------------------------------------------------------- TraceRing

struct TraceRing::Impl {
  mutable std::mutex mutex;
  std::size_t capacity;
  std::deque<TraceRecord> traces;
};

TraceRing::TraceRing(std::size_t capacity) : impl_(std::make_shared<Impl>()) {
  impl_->capacity = capacity == 0 ? 1 : capacity;
}

TraceRing& TraceRing::global() {
  // Leaked for the same reason as Registry::global(): publication during
  // static destruction must never touch a destroyed ring.
  static TraceRing* instance = new TraceRing();
  return *instance;
}

void TraceRing::set_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->capacity = capacity == 0 ? 1 : capacity;
  while (impl_->traces.size() > impl_->capacity) impl_->traces.pop_front();
}

void TraceRing::push(TraceRecord record) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->traces.push_back(std::move(record));
  while (impl_->traces.size() > impl_->capacity) impl_->traces.pop_front();
}

void TraceRing::clear() {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->traces.clear();
}

std::size_t TraceRing::size() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->traces.size();
}

std::vector<TraceRecord> TraceRing::snapshot() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return std::vector<TraceRecord>(impl_->traces.begin(), impl_->traces.end());
}

// ----------------------------------------------------------- chrome tracing

std::string chrome_trace_json(const std::vector<TraceRecord>& traces) {
  std::string out = "{\"traceEvents\":[";
  bool first_event = true;
  for (const TraceRecord& t : traces) {
    for (const Span& s : t.spans) {
      if (!first_event) out += ',';
      first_event = false;
      out += "{\"name\":";
      append_json_string(out, stage_name(s.stage));
      out += ",\"cat\":\"query\",\"ph\":\"X\",\"pid\":1,\"tid\":";
      out += std::to_string(t.request_id);
      // chrome://tracing wants microseconds; keep sub-µs spans visible.
      out += strfmt(",\"ts\":%.3f", static_cast<double>(t.start_epoch_us) +
                                        static_cast<double>(s.start_ns) * 1e-3);
      out += strfmt(",\"dur\":%.3f", static_cast<double>(s.duration_ns) * 1e-3);
      out += ",\"args\":{";
      out += "\"graph\":";
      append_json_string(out, t.graph_id);
      if (s.stage == Stage::Search || s.stage == Stage::Parse) {
        out += ",\"query\":";
        append_json_string(out, t.query_text);
      }
      if (s.stage == Stage::Search) {
        for (const auto& [key, value] : t.annotations) {
          out += ',';
          append_json_string(out, key);
          out += ':';
          append_json_string(out, value);
        }
      }
      out += "}}";
    }
    // Metadata: name each "thread" (= request) so the viewer shows the
    // request line instead of a bare id.
    if (!t.spans.empty()) {
      out += ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
      out += std::to_string(t.request_id);
      out += ",\"args\":{\"name\":";
      std::string label = "req " + std::to_string(t.request_id);
      if (!t.graph_id.empty()) label += " " + t.graph_id;
      if (t.cache_hit) label += " [cached]";
      if (t.error) label += " [error]";
      append_json_string(out, label);
      out += "}}";
    }
  }
  out += "]}";
  return out;
}

// -------------------------------------------------------------- SlowQueryLog

struct SlowQueryLog::Impl {
  mutable std::mutex mutex;
  // Atomic so maybe_log() can bail out without the mutex when disabled —
  // that check runs once per request on every serving path.
  std::atomic<double> threshold_seconds{0.0};  // <= 0: disabled
  std::FILE* sink = nullptr;                   // nullptr: stderr
  std::FILE* owned_file = nullptr;
  std::atomic<std::uint64_t> logged{0};

  ~Impl() {
    if (owned_file != nullptr) std::fclose(owned_file);
  }
};

SlowQueryLog::SlowQueryLog() : impl_(std::make_shared<Impl>()) {}

SlowQueryLog& SlowQueryLog::global() {
  static SlowQueryLog* instance = new SlowQueryLog();
  return *instance;
}

void SlowQueryLog::configure(double threshold_seconds, std::FILE* sink) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->owned_file != nullptr) {
    std::fclose(impl_->owned_file);
    impl_->owned_file = nullptr;
  }
  impl_->threshold_seconds.store(threshold_seconds, std::memory_order_relaxed);
  impl_->sink = sink;
}

bool SlowQueryLog::configure_file(double threshold_seconds, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->owned_file != nullptr) {
    std::fclose(impl_->owned_file);
    impl_->owned_file = nullptr;
  }
  if (f == nullptr) {
    impl_->threshold_seconds.store(0.0, std::memory_order_relaxed);
    impl_->sink = nullptr;
    return false;
  }
  impl_->threshold_seconds.store(threshold_seconds, std::memory_order_relaxed);
  impl_->owned_file = f;
  impl_->sink = f;
  return true;
}

double SlowQueryLog::threshold_seconds() const noexcept {
  return impl_->threshold_seconds.load(std::memory_order_relaxed);
}

std::uint64_t SlowQueryLog::logged() const noexcept {
  return impl_->logged.load(std::memory_order_relaxed);
}

std::string SlowQueryLog::format_record(const TraceRecord& record) {
  std::string line = "slow_query";
  line += strfmt(" id=%llu", static_cast<unsigned long long>(record.request_id));
  line += strfmt(" total_ms=%.3f", static_cast<double>(record.total_ns()) * 1e-6);
  line += " graph=";
  line += record.graph_id.empty() ? "-" : record.graph_id;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const auto stage = static_cast<Stage>(i);
    const std::uint64_t ns = record.stage_ns(stage);
    if (ns == 0) continue;
    line += strfmt(" %s_ms=%.3f", stage_name(stage), static_cast<double>(ns) * 1e-6);
  }
  for (const auto& [key, value] : record.annotations) {
    line += ' ';
    line += key;
    line += '=';
    line += value;
  }
  if (record.cache_hit) line += " cache_hit=1";
  if (record.error) line += " error=1";
  if (record.truncated) line += " truncated=1";
  line += " query=\"";
  for (const char c : record.query_text) {
    if (c == '\n' || c == '\r') {
      line += ' ';
    } else if (c == '"') {
      line += '\'';
    } else {
      line += c;
    }
  }
  line += '"';
  return line;
}

void SlowQueryLog::maybe_log(const TraceRecord& record) {
  // Lock-free bail-outs: the log is usually disabled or the request fast.
  const double threshold = impl_->threshold_seconds.load(std::memory_order_relaxed);
  if (threshold <= 0.0) return;
  if (static_cast<double>(record.total_ns()) * 1e-9 < threshold) return;
  const std::string line = format_record(record);
  {
    // The lock covers the write so interleaved slow queries from concurrent
    // connections stay one-per-line, and pins the sink against a
    // concurrent reconfigure closing it mid-write.
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->threshold_seconds.load(std::memory_order_relaxed) <= 0.0) return;
    std::FILE* out = impl_->sink != nullptr ? impl_->sink : stderr;
    std::fputs(line.c_str(), out);
    std::fputc('\n', out);
    std::fflush(out);
  }
  impl_->logged.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace c3::obs
