// serve_mix: the serving stack end to end — snapshot-backed CliqueService,
// AnswerCache, LineFrontEnd admission and formatting, and the loopback
// CliqueServer — driven by two closed-loop LineClient connections. Also the
// serving-layer probe that every workload's traced run reports.
#include <algorithm>
#include <array>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "clique/answer_cache.hpp"
#include "clique/engine.hpp"
#include "clique/query.hpp"
#include "clique/service.hpp"
#include "expected.hpp"
#include "graph/builder.hpp"
#include "inputs.hpp"
#include "net/client.hpp"
#include "net/frontend.hpp"
#include "net/server.hpp"
#include "parallel/parallel.hpp"
#include "snapshot/snapshot.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Answers the serving cache holds during serve_mix: far fewer than the
/// ~150 distinct questions of the mix, so a question asked long ago has
/// usually been evicted and only the deliberate repeats hit.
constexpr std::size_t kServeCacheEntries = 16;
constexpr int kClients = 2;
/// Set-ups per run (~0.2 s each); setup_s is their median.
constexpr int kServeSetups = 9;

/// The graphs behind the catalog, each served under every algorithm from
/// its own snapshot, plus the loopback server in front of them.
class ServingStack {
 public:
  ServingStack(const std::vector<NamedGraph>& graphs, const std::string& dir,
               std::size_t cache_entries, Tracer& tracer) {
    fs::create_directories(dir);
    for (const NamedGraph& g : graphs) {
      for (const AlgorithmTag& alg : kAlgorithms) {
        const std::string id = g.name + "." + alg.tag;
        const fs::path path = fs::path(dir) / (id + ".c3snap");
        {
          const c3::PreparedGraph engine(g.graph, options_for(alg.algorithm));
          SpanScope span(tracer, "snapshot.write");
          write_s += timed([&] { c3::snapshot::write(path, engine); });
        }
        bytes += static_cast<double>(fs::file_size(path));
        service.add_snapshot(id, path);
        SpanScope span(tracer, "snapshot.open");
        open_s += timed([&] { service.prepare(id); });
        ids.push_back(id);
        paths.push_back(path);
      }
    }
    c3::net::ServerOptions opts;
    opts.cache_capacity = cache_entries;
    server = std::make_unique<c3::net::CliqueServer>(service, opts);
    server->start();
    c3::net::LineClient ping("127.0.0.1", static_cast<std::uint16_t>(server->port()));
    if (ping.request("ping") != "pong") throw std::runtime_error("server did not answer ping");
  }

  [[nodiscard]] std::uint16_t port() const { return static_cast<std::uint16_t>(server->port()); }

  /// Stops serving and deletes the snapshot files.
  void remove_files() {
    server.reset();
    for (const fs::path& p : paths) fs::remove(p);
  }

  std::vector<std::string> ids;
  std::vector<fs::path> paths;
  double write_s = 0.0;
  double open_s = 0.0;
  double bytes = 0.0;
  c3::CliqueService service;
  std::unique_ptr<c3::net::CliqueServer> server;  // declared after the service it serves
};

/// One request as sent, and what came back.
struct Exchange {
  std::string line;  // "<id> <query>"
  std::string reply;
  double ms = 0.0;
  int pass = 0;
  int client = 0;
};

std::string graph_id_of(const std::string& line) { return line.substr(0, line.find(' ')); }
std::string query_of(const std::string& line) { return line.substr(line.find(' ') + 1); }

/// The serve_mix request stream of one client, generated pass by pass. A
/// pass asks every catalog id the same nine questions: count k for each k
/// in 5..9, vertexcounts 3 and 4, spectrum 4 (below every count's k, so no
/// count is served from a cached spectrum) and one probe, hasclique (k
/// 5..12) or maxclique in alternate passes. Two of the nine always carry a
/// generous option that never fires: count 7 a budget=, vertexcounts 4 a
/// workers=. So every pass does the same work; the seed only orders it. The
/// pass is shuffled, and after every third request the previous one is
/// asked again: a cache hit. Hits and probes answer in well under a
/// millisecond and make up a third of the stream, so the median request is
/// a search.
class MixGenerator {
 public:
  MixGenerator(const std::vector<std::string>& ids, Rng rng) : ids_(ids), rng_(rng) {}

  std::string next(int& pass) {
    if (cursor_ == queue_.size()) refill();
    pass = pass_;
    return queue_[cursor_++];
  }

 private:
  void refill() {
    ++pass_;
    std::vector<std::string> novel;
    for (const std::string& id : ids_) {
      const std::string probe =
          pass_ % 2 == 0 ? "hasclique " + std::to_string(5 + rng_.below(8)) : "maxclique witness=0";
      for (const std::string& q : {std::string("count 5"), std::string("count 6"), std::string("count 7 budget=60"),
                                   std::string("count 8"), std::string("count 9"), std::string("vertexcounts 3"),
                                   std::string("vertexcounts 4 workers=2"), std::string("spectrum 4"), probe}) {
        novel.push_back(id + " " + q);
      }
    }
    shuffle(novel, rng_);
    queue_.clear();
    cursor_ = 0;
    for (std::size_t i = 0; i < novel.size(); ++i) {
      queue_.push_back(novel[i]);
      if (i % 3 == 2) queue_.push_back(novel[i]);
    }
  }

  const std::vector<std::string>& ids_;
  Rng rng_;
  std::vector<std::string> queue_;
  std::size_t cursor_ = 0;
  int pass_ = 0;
};

/// Closed-loop replay: each client sends its next line as soon as the
/// previous reply arrives, until `seconds` have passed (or its fixed list
/// runs out). Returns the exchanges of all clients; a transport failure
/// becomes an "error: ..." reply.
template <typename NextLine>
std::vector<Exchange> replay(std::uint16_t port, int clients, double seconds, NextLine next_line,
                             Tracer& tracer) {
  std::vector<std::vector<Exchange>> logs(clients);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        c3::net::LineClient client("127.0.0.1", port, 120.0);
        Exchange ex;
        ex.client = c;
        while (seconds_since(t0) < seconds && next_line(c, ex.line, ex.pass)) {
          const std::size_t span = tracer.open("wire.request", 0, logs[c].size() * clients + c + 1);
          const auto start = Clock::now();
          ex.reply = client.request(ex.line);
          ex.ms = seconds_since(start) * 1e3;
          tracer.close(span);
          logs[c].push_back(ex);
        }
      } catch (const std::exception& e) {
        logs[c].push_back({"", std::string("error: ") + e.what(), 0.0, 0, c});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Exchange> all;
  for (auto& log : logs) all.insert(all.end(), log.begin(), log.end());
  return all;
}

/// Reference answers: format_answer(CliqueService::run(...)) of each
/// distinct question, computed once per question on first use.
class References {
 public:
  struct Entry {
    std::string id;
    c3::Query query;  // canonical: no execution options
    c3::Answer answer;
    std::string text;
    double ms = 0.0;  // service time
  };

  explicit References(const c3::CliqueService& service) : service_(service) {}

  const Entry& expected(const std::string& line, Tracer& tracer) {
    const std::string id = graph_id_of(line);
    const c3::Query q = c3::canonical_question(c3::parse_query(query_of(line)));
    const std::string key = id + " " + c3::format_query(q);
    const auto [it, inserted] = index_.try_emplace(key, entries.size());
    if (inserted) {
      Entry e{id, q, {}, {}, 0.0};
      SpanScope span(tracer, "service.run");
      e.ms = timed([&] { e.answer = service_.run(id, q); }) * 1e3;
      e.text = c3::format_answer(e.answer);
      entries.push_back(std::move(e));
    }
    return entries[it->second];
  }

  std::vector<Entry> entries;  // one per distinct question, first-use order

 private:
  const c3::CliqueService& service_;
  std::map<std::string, std::size_t> index_;
};

/// Byte-compares every reply with its reference; returns the mismatches.
std::uint64_t check_replies(const std::vector<Exchange>& log, References& refs, Tracer& tracer) {
  std::uint64_t failed = 0;
  for (const Exchange& ex : log) {
    if (ex.line.empty() || ex.reply != refs.expected(ex.line, tracer).text) {
      if (failed < 5) {
        std::fprintf(stderr, "perfbench: reply mismatch for '%s': got '%s'\n", ex.line.c_str(),
                     ex.reply.c_str());
      }
      ++failed;
    }
  }
  return failed;
}

/// The serve_mix questions whose answers must not depend on the algorithm.
constexpr const char* kAgreementQuestions[] = {"count 5",        "count 6",        "count 7",   "count 8",
                                               "count 9",        "vertexcounts 3", "vertexcounts 4",
                                               "spectrum 4"};

bool same_payload(const c3::Answer& a, const c3::Answer& b) {
  return a.count == b.count && a.found == b.found && a.truncated == b.truncated && a.omega == b.omega &&
         a.per_counts == b.per_counts && a.spectrum.counts == b.spectrum.counts &&
         a.spectrum.omega == b.spectrum.omega;
}

/// Compares every graph's answers under the four algorithms with each
/// other and, at the default seed, its counts with the pinned ones. The
/// replies were checked against the same references, so a wrong count
/// from one algorithm fails here even though its reply matched.
void check_agreement(const std::vector<NamedGraph>& graphs, std::uint64_t seed, References& refs,
                     Tracer& tracer, Result& tally) {
  for (const NamedGraph& g : graphs) {
    for (const char* q : kAgreementQuestions) {
      const c3::Answer first = refs.expected(g.name + "." + kAlgorithms[0].tag + " " + q, tracer).answer;
      for (int a = 1; a < kNumAlgorithms; ++a) {
        ++tally.attempted;
        if (!same_payload(refs.expected(g.name + "." + kAlgorithms[a].tag + " " + q, tracer).answer, first)) {
          std::fprintf(stderr, "perfbench: %s '%s': %s disagrees with %s\n", g.name.c_str(), q,
                       kAlgorithms[a].tag, kAlgorithms[0].tag);
          ++tally.failed;
        }
      }
    }
    if (seed != kDefaultSeed) continue;
    for (int k = 6; k <= 9; ++k) {
      const c3::count_t got =
          refs.expected(g.name + "." + kAlgorithms[0].tag + " count " + std::to_string(k), tracer).answer.count;
      ++tally.attempted;
      if (got != pinned_count(g.name, k)) {
        std::fprintf(stderr, "perfbench: %s k=%d counted %llu, pinned %llu\n", g.name.c_str(), k,
                     static_cast<unsigned long long>(got), static_cast<unsigned long long>(pinned_count(g.name, k)));
        ++tally.failed;
      }
    }
  }
}

/// Replays a fixed list of lines over one connection.
std::vector<Exchange> replay_list(std::uint16_t port, const std::vector<std::string>& lines,
                                  Tracer& tracer) {
  std::size_t next = 0;
  return replay(port, 1, 1e9,
                [&](int, std::string& line, int&) {
                  if (next == lines.size()) return false;
                  line = lines[next++];
                  return true;
                },
                tracer);
}

/// The serving-layer metrics: the snapshot set-up of `stack`, service time
/// per distinct question, the cache and admission counters of `served`, and
/// two hit-path replays of `lines` — in process through a LineFrontEnd whose
/// cache holds every reference answer (so process() never reaches the
/// service and its time is the front end's own), and over the wire through
/// a second server warmed with every question (round trip minus process()
/// is the wire's share).
void serving_layer_metrics(ServingStack& stack, References& refs,
                           const std::vector<std::string>& lines, const c3::net::ServerStats& served,
                           Tracer& tracer, Metrics& out, Result& tally) {
  out.add("snapshot.write_s", stack.write_s, "s");
  out.add("snapshot.open_s", stack.open_s, "s");
  out.add("snapshot.bytes", stack.bytes, "bytes");
  std::vector<double> run_ms;
  for (const References::Entry& e : refs.entries) run_ms.push_back(e.ms);
  out.add("service.run_ms_p50", median(run_ms), "ms");
  const std::uint64_t lookups = served.frontend.cache.hits + served.frontend.cache.misses;
  out.add("cache.hit_ratio",
          lookups > 0 ? static_cast<double>(served.frontend.cache.hits) / static_cast<double>(lookups) : 0.0,
          "ratio");
  out.add("cache.lookups", static_cast<double>(lookups), "count");
  out.add("frontend.admission_peak", served.frontend.peak_inflight, "count");

  c3::AnswerCache cache(1 << 16);
  std::vector<std::string> distinct;
  for (const References::Entry& e : refs.entries) {
    (void)cache.insert(c3::AnswerCache::make_key(stack.service.fingerprint(e.id), e.query), e.answer);
    distinct.push_back(e.id + " " + c3::format_query(e.query));
  }
  c3::net::LineFrontEnd frontend(stack.service, &cache);
  std::vector<double> process_ms;
  for (const std::string& line : lines) {
    std::string reply;
    {
      SpanScope span(tracer, "frontend.process");
      process_ms.push_back(timed([&] { reply = frontend.process(line).line; }) * 1e3);
    }
    ++tally.attempted;
    if (reply != refs.expected(line, tracer).text) ++tally.failed;
  }
  out.add("frontend.overhead_ms_p50", median(process_ms), "ms");

  c3::net::ServerOptions opts;
  opts.cache_capacity = 1 << 16;
  c3::net::CliqueServer warm(stack.service, opts);
  warm.start();
  const auto port = static_cast<std::uint16_t>(warm.port());
  (void)replay_list(port, distinct, tracer);
  const std::vector<Exchange> hits = replay_list(port, lines, tracer);
  warm.stop();
  std::vector<double> wire_ms;
  for (std::size_t i = 0; i < hits.size() && i < process_ms.size(); ++i) {
    wire_ms.push_back(hits[i].ms - process_ms[i]);
  }
  tally.attempted += hits.size();
  tally.failed += check_replies(hits, refs, tracer);
  out.add("wire.overhead_ms_p50", median(wire_ms), "ms");
}

std::string algorithm_tag_of(const std::string& line) {
  const std::string id = graph_id_of(line);
  return id.substr(id.find('.') + 1);
}

}  // namespace

void probe_serving(const std::vector<NamedGraph>& graphs, const std::vector<GridPoint>& grid,
                   Tracer& tracer, Metrics& out, Result& tally) {
  ServingStack stack(graphs, std::string(kOutDir) + "/probe", 1 << 16, tracer);
  std::vector<std::string> lines;
  for (int round = 0; round < 2; ++round) {
    for (const GridPoint& p : grid) {
      lines.push_back(graphs[p.graph].name + ".c3list count " + std::to_string(p.k));
    }
  }
  const std::vector<Exchange> log = replay_list(stack.port(), lines, tracer);
  References refs(stack.service);
  tally.attempted += log.size();
  tally.failed += check_replies(log, refs, tracer);
  serving_layer_metrics(stack, refs, lines, stack.server->stats(), tracer, out, tally);
  stack.remove_files();
}

Result run_serve_mix(const Args& args) {
  c3::set_num_workers(kWorkers);
  Result result;
  Metrics& m = result.metrics;
  Tracer tracer(args.trace);
  Tracer quiet(false);
  const Rng rng(args.seed);
  // The same dblp and orkut stand-ins paper_sweep builds for this seed.
  const std::vector<EdgeInput> inputs = {dblp_like(kSweepScale, rng.fork(1)),
                                         orkut_like(kSweepScale, rng.fork(4))};

  // Set-up: build, prepare + snapshot write, open into the service, start
  // the server, first answered ping. Repeated; setup_s is the median.
  std::vector<double> setups, builds;
  std::vector<NamedGraph> graphs;
  std::unique_ptr<ServingStack> stack;
  for (int rep = 0; rep < kServeSetups; ++rep) {
    stack.reset();
    graphs.clear();
    const auto t0 = Clock::now();
    builds.push_back(timed([&] {
      for (const EdgeInput& in : inputs) graphs.push_back({in.name, c3::build_graph(in.edges, in.num_nodes)});
    }));
    stack = std::make_unique<ServingStack>(graphs, std::string(kOutDir) + "/serve", kServeCacheEntries,
                                           rep + 1 == kServeSetups ? tracer : quiet);
    setups.push_back(seconds_since(t0));
  }

  // Two clients with one worker per query: the same two busy workers
  // paper_sweep uses.
  c3::set_num_workers(kWorkers / kClients);

  // The timed replay. A traced run splits it: the first half untraced, the
  // second with spans, for the tracing overhead.
  std::vector<MixGenerator> generators;
  for (int c = 0; c < kClients; ++c) generators.emplace_back(stack->ids, rng.fork(100 + c));
  const auto next_line = [&](int c, std::string& line, int& pass) {
    line = generators[c].next(pass);
    return true;
  };
  std::vector<Exchange> untraced;
  double untraced_s = 0.0;
  if (args.trace) {
    untraced_s = timed([&] { untraced = replay(stack->port(), kClients, args.seconds / 2, next_line, quiet); });
  }
  std::vector<Exchange> log;
  const double elapsed = timed([&] {
    log = replay(stack->port(), kClients, args.trace ? args.seconds / 2 : args.seconds, next_line, tracer);
  });
  const c3::net::ServerStats served = stack->server->stats();

  // References run at the serving worker count, so their service times are
  // comparable with the round trips.
  References refs(stack->service);
  result.attempted = log.size() + untraced.size();
  result.failed = check_replies(log, refs, tracer) + check_replies(untraced, refs, quiet);
  check_agreement(graphs, args.seed, refs, tracer, result);
  c3::set_num_workers(kWorkers);

  if (!args.trace) {
    // Per algorithm: the summed latency of the requests to its ids, per
    // complete pass of one client (a client's last pass was cut short by
    // the clock), averaged over those passes.
    std::map<int, int> last_pass;
    for (const Exchange& ex : log) last_pass[ex.client] = std::max(last_pass[ex.client], ex.pass);
    std::array<double, kNumAlgorithms> sums{};
    int passes = 0;
    for (const auto& [client, last] : last_pass) passes += std::max(1, last - 1);
    std::vector<double> ms;
    for (const Exchange& ex : log) {
      ms.push_back(ex.ms);
      if (ex.pass == last_pass[ex.client] && ex.pass > 1) continue;
      for (int a = 0; a < kNumAlgorithms; ++a) {
        if (algorithm_tag_of(ex.line) == kAlgorithms[a].tag) sums[a] += ex.ms / 1e3;
      }
    }
    m.add("setup_s", median(setups), "s");
    for (int a = 0; a < kNumAlgorithms; ++a) {
      m.add(std::string("total_s.") + kAlgorithms[a].tag, sums[a] / passes, "s");
    }
    m.add("latency_p50_ms", quantile(ms, 0.5), "ms");
    m.add("latency_p95_ms", quantile(ms, 0.95), "ms");
    m.add("throughput_qps", static_cast<double>(log.size()) / elapsed, "1/s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    stack->remove_files();
    return result;
  }

  m.add("graph.build_s", median(builds), "s");
  const double per_request_traced = elapsed / static_cast<double>(std::max<std::size_t>(1, log.size()));
  const double per_request_untraced = untraced_s / static_cast<double>(std::max<std::size_t>(1, untraced.size()));
  m.add("trace.overhead_ratio", per_request_traced / per_request_untraced - 1.0, "ratio");
  // Span coverage of each algorithm's request time: the service spans of
  // the requests that missed the cache (a round trip at least half its
  // question's service time) over the summed round trips.
  for (const AlgorithmTag& alg : kAlgorithms) {
    double base = 0.0, covered = 0.0;
    for (const Exchange& ex : log) {
      if (algorithm_tag_of(ex.line) != alg.tag) continue;
      base += ex.ms / 1e3;
      const double service_ms = refs.expected(ex.line, tracer).ms;
      if (ex.ms >= 0.5 * service_ms) covered += std::min(ex.ms, service_ms) / 1e3;
    }
    m.add(std::string("coverage.") + alg.tag, base > 0 ? covered / base : 0.0, "ratio");
    m.add(std::string("coverage_base_s.") + alg.tag, base, "s");
  }

  std::vector<GridPoint> grid;
  for (int g = 0; g < static_cast<int>(graphs.size()); ++g) {
    for (int k = 5; k <= 9; ++k) grid.push_back({g, k});
  }
  probe_prepare_layers(graphs, tracer, m);
  (void)probe_search(graphs, grid, tracer, m, result);
  probe_kernels(m);
  std::vector<std::string> lines;
  for (const Exchange& ex : log) lines.push_back(ex.line);
  serving_layer_metrics(*stack, refs, lines, served, tracer, m, result);
  std::map<std::string, BatchWork> work;
  for (const References::Entry& e : refs.entries) {
    BatchWork& w = work[e.id];
    w.engine = &stack->service.engine(e.id);
    w.queries.push_back(e.query);
  }
  std::vector<BatchWork> batches;
  for (auto& [id, w] : work) batches.push_back(std::move(w));
  probe_batch(batches, tracer, m, result);
  tracer.write(std::string(kOutDir) + "/trace_serve_mix.json");
  stack->remove_files();
  return result;
}

}  // namespace perfbench
