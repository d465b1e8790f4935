// Reporting helpers of the benchmark: named metrics, order statistics, the
// span recorder of a traced run, and the final one-line JSON result.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Times one call; returns its wall seconds.
template <typename F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process so far, in MiB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Metrics in report order, each with its unit.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }

  /// One "name value unit" line per metric (the human-readable report).
  void print_lines() const {
    for (const Item& m : items_) std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  /// The `"metrics": {...}` body of the JSON result.
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[96];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Item& m = items_[i];
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
      out += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
             "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Spans of a traced run: one per call the benchmark makes into a layer's
/// public function. Kept in memory and written as chrome://tracing JSON at
/// the end. Disabled recorders hand out id 0 and record nothing. Safe to use
/// from several client threads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span; returns its id (0 when disabled).
  std::size_t open(std::string name, std::size_t parent = 0, std::uint64_t request = 0) {
    if (!enabled_) return 0;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), seconds_since(t0_), -1.0, parent, request});
    return spans_.size();
  }

  void close(std::size_t id) {
    if (id == 0) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = seconds_since(t0_);
  }

  /// Writes every span as a chrome://tracing "complete" event.
  bool write(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i > 0 ? ",\n" : "\n") << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"ts\": "
          << s.start * 1e6 << ", \"dur\": " << (std::max(s.end, s.start) - s.start) * 1e6
          << ", \"pid\": 1, \"tid\": " << s.request << ", \"args\": {\"id\": " << i + 1
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    std::size_t parent;
    std::uint64_t request;
  };
  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, std::size_t parent = 0, std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.open(std::move(name), parent, request)) {}
  ~SpanScope() { tracer_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] std::size_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::size_t id_;
};

}  // namespace perfbench
