#include "net/frontend.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "clique/engine.hpp"
#include "clique/query.hpp"
#include "clique/recursive.hpp"
#include "util/bitkernels.hpp"
#include "util/timer.hpp"

namespace c3::net {
namespace {

/// Error payloads and stats suffixes travel on one line: fold any newline
/// into spaces.
std::string one_line(std::string_view text) {
  std::string out(text);
  std::replace(out.begin(), out.end(), '\n', ' ');
  std::replace(out.begin(), out.end(), '\r', ' ');
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

std::uint64_t next_instance_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

/// RAII slot in a graph's admission gate: the constructor blocks until the
/// graph has a free execution slot (under both the per-graph cap and the
/// optional catalog-wide cap), the destructor frees it and hands the
/// capacity to the next waiter. Capacity moves as explicit per-gate grants
/// issued round-robin over the waiting graphs (grant_locked), so wakeup
/// order is a scheduling decision, not a condvar race — a hot graph's
/// waiter horde cannot absorb every freed slot while a light graph starves.
/// The wait is the AdmissionWait stage: its duration lands in the request's
/// trace and the c3_admission_wait_seconds histogram.
class LineFrontEnd::Admission {
 public:
  Admission(LineFrontEnd& fe, const std::string& id, obs::TraceContext* trace) : fe_(fe) {
    const bool telemetry = obs::enabled();
    const std::uint64_t wait_start = trace != nullptr ? trace->now_ns() : 0;
    const WallTimer wait_timer;
    std::unique_lock<std::mutex> lock(fe_.gate_mutex_);
    // std::map nodes are stable and gates are never erased, so the pointer
    // outlives the lock.
    gate_ = &fe_.gates_[id];
    if (gate_->inflight_gauge == nullptr) {
      gate_->inflight_gauge =
          &obs::Registry::global().gauge("c3_graph_inflight", "graph=\"" + id + "\"");
    }
    const int total_cap = fe_.opts_.max_inflight_total;
    const bool fast = fe_.total_waiting_ == 0 && fe_.total_grants_ == 0 &&
                      gate_->inflight < fe_.opts_.max_inflight_per_graph &&
                      (total_cap <= 0 || fe_.total_inflight_ < total_cap);
    if (!fast) {
      // Queue behind the grant scheduler even when this gate has room — an
      // uncontended fast path past *other* gates' waiters would let a busy
      // graph keep leapfrogging the round-robin order on the total cap.
      gate_->waiting += 1;
      fe_.total_waiting_ += 1;
      fe_.grant_locked();
      gate_->free_slot.wait(lock, [&] { return gate_->grants > 0; });
      gate_->grants -= 1;
      fe_.total_grants_ -= 1;
      gate_->waiting -= 1;
      fe_.total_waiting_ -= 1;
    }
    gate_->inflight += 1;
    fe_.total_inflight_ += 1;
    gate_->peak = std::max(gate_->peak, gate_->inflight);
    gate_->inflight_gauge->add();
    if (trace != nullptr) {
      trace->add_span(obs::Stage::AdmissionWait, wait_start, trace->now_ns() - wait_start);
    }
    if (telemetry) fe_.admission_wait_->observe(wait_timer.seconds());
  }

  ~Admission() {
    const std::lock_guard<std::mutex> lock(fe_.gate_mutex_);
    gate_->inflight -= 1;
    fe_.total_inflight_ -= 1;
    gate_->inflight_gauge->sub();
    fe_.grant_locked();  // hand the freed capacity to the next gate in turn
  }

  Admission(const Admission&) = delete;
  Admission& operator=(const Admission&) = delete;

 private:
  LineFrontEnd& fe_;
  GraphGate* gate_ = nullptr;
};

void LineFrontEnd::grant_locked() {
  if (gates_.empty() || total_waiting_ == total_grants_) return;
  for (;;) {
    bool granted = false;
    auto it = gates_.lower_bound(rr_cursor_);
    for (std::size_t scanned = 0; scanned < gates_.size(); ++scanned) {
      if (it == gates_.end()) it = gates_.begin();
      GraphGate& gate = it->second;
      ++it;
      const bool has_waiter = gate.waiting > gate.grants;  // ungranted waiters
      const bool per_ok = gate.inflight + gate.grants < opts_.max_inflight_per_graph;
      const bool total_ok = opts_.max_inflight_total <= 0 ||
                            total_inflight_ + total_grants_ < opts_.max_inflight_total;
      if (!total_ok) return;
      if (has_waiter && per_ok) {
        gate.grants += 1;
        total_grants_ += 1;
        gate.free_slot.notify_one();
        // Restart the scan one past the granted gate — strict round-robin.
        rr_cursor_ = it == gates_.end() ? std::string() : it->first;
        granted = true;
        break;
      }
    }
    if (!granted) return;
  }
}

LineFrontEnd::LineFrontEnd(const CliqueService& service, AnswerCache* cache,
                           FrontEndOptions opts)
    : service_(&service), cache_(cache), opts_(opts) {
  opts_.max_inflight_per_graph = std::max(1, opts_.max_inflight_per_graph);
  opts_.max_inflight_total = std::max(0, opts_.max_inflight_total);  // 0 = no total cap
  // Register this instance's serving counters. The instance label keeps
  // concurrent front ends (tests, multiple servers in one process) from
  // polluting each other's stats while every series still lands in one
  // `metrics` exposition.
  instance_label_ = "instance=\"" + std::to_string(next_instance_id()) + "\"";
  obs::Registry& reg = obs::Registry::global();
  requests_ = &reg.counter("c3_requests_total", instance_label_);
  answered_ = &reg.counter("c3_answered_total", instance_label_);
  cache_hits_ = &reg.counter("c3_cache_hits_total", instance_label_);
  errors_ = &reg.counter("c3_errors_total", instance_label_);
  recursive_calls_ = &reg.counter("c3_search_recursive_calls_total", instance_label_);
  closed_form_sets_ = &reg.counter("c3_closed_form_sets_total", instance_label_);
  admission_wait_ = &reg.histogram("c3_admission_wait_seconds");
}

void LineFrontEnd::set_stats_suffix_source(std::function<std::string()> source) {
  stats_suffix_ = std::move(source);
}

std::uint64_t LineFrontEnd::fingerprint_for(const std::string& id) {
  {
    const std::shared_lock<std::shared_mutex> lock(fingerprint_mutex_);
    if (const auto it = fingerprints_.find(id); it != fingerprints_.end()) return it->second;
  }
  // May open a snapshot entry on first touch.
  const std::uint64_t fp = service_->fingerprint(id);
  const std::unique_lock<std::shared_mutex> lock(fingerprint_mutex_);
  return fingerprints_.emplace(id, fp).first->second;
}

std::string LineFrontEnd::stats_line() const {
  const FrontEndStats s = stats();
  std::string line = "stats: requests=" + std::to_string(s.requests) +
                     " answered=" + std::to_string(s.answered) +
                     " errors=" + std::to_string(s.errors) +
                     " peak_inflight=" + std::to_string(s.peak_inflight) +
                     " graphs=" + std::to_string(service_->size());
  line += " cache_hits=" + std::to_string(s.cache.hits) +
          " cache_misses=" + std::to_string(s.cache.misses) +
          " cache_evictions=" + std::to_string(s.cache.evictions) +
          " cache_entries=" + std::to_string(s.cache.entries) +
          " cache_cross_k_hits=" + std::to_string(s.cache.cross_k_hits);
  line += " recursive_calls=" + std::to_string(s.recursive_calls) +
          " closed_form_sets=" + std::to_string(s.closed_form_sets);
  line += std::string(" search=") + bits::kernel_backend_name(bits::active_kernel_backend());
  if (stats_suffix_) {
    // one_line: a multi-line suffix must not corrupt the one-answer-per-line
    // protocol (the suffix source is caller code the front end cannot vet).
    const std::string suffix = one_line(stats_suffix_());
    if (!suffix.empty()) line += ' ' + suffix;
  }
  return line;
}

std::string LineFrontEnd::metrics_text() const {
  obs::Registry& reg = obs::Registry::global();
  // Instantaneous serving-layer state is mirrored into gauges at scrape
  // time — the scrape is the only reader, so sampling here keeps the hot
  // path free of double bookkeeping.
  reg.gauge("c3_catalog_graphs").set(static_cast<std::int64_t>(service_->size()));
  if (cache_ != nullptr) {
    const AnswerCacheStats c = cache_->stats();
    reg.gauge("c3_answer_cache_hits", instance_label_)
        .set(static_cast<std::int64_t>(c.hits));
    reg.gauge("c3_answer_cache_misses", instance_label_)
        .set(static_cast<std::int64_t>(c.misses));
    reg.gauge("c3_answer_cache_evictions", instance_label_)
        .set(static_cast<std::int64_t>(c.evictions));
    reg.gauge("c3_answer_cache_insertions", instance_label_)
        .set(static_cast<std::int64_t>(c.insertions));
    reg.gauge("c3_answer_cache_entries", instance_label_)
        .set(static_cast<std::int64_t>(c.entries));
    reg.gauge("c3_answer_cache_cross_k_hits", instance_label_)
        .set(static_cast<std::int64_t>(c.cross_k_hits));
  }
  {
    const std::lock_guard<std::mutex> lock(gate_mutex_);
    int peak = 0;
    for (const auto& [id, gate] : gates_) peak = std::max(peak, gate.peak);
    reg.gauge("c3_peak_inflight", instance_label_).set(peak);
  }
  std::string out = reg.render();
  // The reply line carries the exposition's own newlines; the transport
  // appends the final one after "# EOF".
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

LineFrontEnd::Reply LineFrontEnd::process(std::string_view raw) {
  const std::string_view line = trim(raw);
  if (line.empty() || line.front() == '#') return Reply{std::string(), false, false, {}};

  // Admin commands are bare words, never valid graph ids in a request (a
  // request needs a second token), so they cannot shadow catalog entries.
  if (line == "ping") return Reply{"pong", true, false, {}};
  if (line == "quit" || line == "bye") return Reply{"bye", true, true, {}};
  if (line == "stats") return Reply{stats_line(), true, false, {}};
  if (line == "metrics") return Reply{metrics_text(), true, false, {}};
  if (line == "trace") {
    return Reply{obs::chrome_trace_json(obs::TraceRing::global().snapshot()), true, false, {}};
  }
  if (line == "catalog") {
    std::string out = "catalog:";
    for (const ServiceGraphInfo& info : service_->catalog()) out += ' ' + info.id;
    return Reply{std::move(out), true, false, {}};
  }

  requests_->add();
  std::unique_ptr<obs::TraceContext> trace;
  if (obs::enabled()) {
    trace = std::make_unique<obs::TraceContext>(std::string(), std::string(line));
  }
  const auto fail = [&](std::string message) {
    errors_->add();
    if (trace != nullptr) trace->mark_error();
    Reply reply{"error: " + one_line(message), true, false, {}};
    reply.trace = std::move(trace);
    return reply;
  };

  obs::TraceContext::Scope parse_span(trace.get(), obs::Stage::Parse);
  const std::size_t space = line.find_first_of(" \t");
  if (space == std::string_view::npos) {
    return fail("expected '<graph-id> <query>', got '" + std::string(line) +
                "' (admin commands: stats metrics trace catalog ping quit)");
  }
  const std::string id(line.substr(0, space));
  const std::string_view query_text = line.substr(space + 1);
  if (trace != nullptr) trace->set_graph(id);

  if (!service_->has_graph(id)) {
    return fail("unknown graph '" + id + "' (see: catalog)");
  }

  Query query;
  try {
    query = parse_query(query_text);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  parse_span.close();

  try {
    std::uint64_t fp = 0;
    {
      // May open a snapshot on first touch — that cost is this request's
      // preparation, distinct from the engine's in-search artifact builds
      // (which run() reports as its own Prepare sub-span).
      obs::TraceContext::Scope prepare_span(trace.get(), obs::Stage::Prepare);
      fp = fingerprint_for(id);
    }
    AnswerCache::Key key;
    if (cache_ != nullptr) {
      key = AnswerCache::make_key(fp, query);
      std::optional<Answer> hit;
      {
        obs::TraceContext::Scope lookup_span(trace.get(), obs::Stage::CacheLookup);
        hit = cache_->lookup(key, query);  // query-aware: may serve cross-k
      }
      if (hit.has_value()) {
        cache_hits_->add();
        answered_->add();
        if (trace != nullptr) trace->mark_cache_hit();
        obs::TraceContext::Scope format_span(trace.get(), obs::Stage::Format);
        Reply reply{format_answer(*hit), true, false, {}};
        format_span.close();
        reply.trace = std::move(trace);
        return reply;
      }
    }
    Answer answer;
    {
      const Admission slot(*this, id, trace.get());  // bounded per-graph execution
      answer = service_->run(id, query, trace.get());
    }
    recursive_calls_->add(answer.stats.recursive_calls);
    closed_form_sets_->add(answer.stats.closed_form_sets);
    if (cache_ != nullptr) (void)cache_->insert(key, answer);  // refuses truncated
    answered_->add();
    obs::TraceContext::Scope format_span(trace.get(), obs::Stage::Format);
    Reply reply{format_answer(answer), true, false, {}};
    format_span.close();
    reply.trace = std::move(trace);
    return reply;
  } catch (const std::exception& e) {
    return fail(e.what());
  }
}

FrontEndStats LineFrontEnd::stats() const {
  FrontEndStats s;
  s.requests = requests_->value();
  s.answered = answered_->value();
  s.cache_hits = cache_hits_->value();
  s.errors = errors_->value();
  s.recursive_calls = recursive_calls_->value();
  s.closed_form_sets = closed_form_sets_->value();
  {
    const std::lock_guard<std::mutex> lock(gate_mutex_);
    for (const auto& [id, gate] : gates_) s.peak_inflight = std::max(s.peak_inflight, gate.peak);
  }
  if (cache_ != nullptr) s.cache = cache_->stats();
  return s;
}

}  // namespace c3::net
