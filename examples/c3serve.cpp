// c3serve — serve a catalog of prepared graphs over TCP.
//
// The serving shape the ROADMAP aims at: register graphs (in-memory files
// or offline-prepared .c3snap snapshots), bind a port, and answer the
// Query/Answer line grammar one request per line:
//
//   $ c3serve --snapshot web=web.c3snap --graph social=social.edges --port 7433
//   c3serve: listening on 127.0.0.1:7433 (2 graphs, cache 4096 entries)
//
//   $ printf 'web count 5\nstats\nquit\n' | nc 127.0.0.1 7433
//   count 5: 291402 cliques
//   stats: requests=1 answered=1 ... cache_hits=0 cache_misses=1 ...
//   bye
//
// A request is `<graph-id> <query>` with the exact query grammar c3tool
// batch files use (count/list/hasclique/findclique/vertexcounts/edgecounts/
// spectrum/maxclique + workers=/limit=/budget=/witness=). Admin commands:
// stats, catalog, ping, quit. Every failure is a one-line `error: ...`.
//
// `--demo` serves two generated graphs (social, er) without any files —
// the quickest way to poke at the protocol.
//
// Flags:
//   --snapshot ID=PATH   register a .c3snap (repeatable; lazily opened)
//   --graph ID=PATH      register an edge-list/METIS/MatrixMarket graph
//                        file (repeatable; prepared in-process)
//   --demo               register two generated demo graphs
//   --bind ADDR          bind address            (default 127.0.0.1)
//   --port N             TCP port, 0 = ephemeral (default 7433)
//   --inflight N         concurrent queries per graph (default 4)
//   --inflight-total N   concurrent queries across the catalog, granted
//                        round-robin over graphs (0 = no cap, default)
//   --cache N            answer-cache entries, 0 = off (default 4096)
//   --idle-timeout SEC   close silent connections (default 300)
//   --prepare            build/open every graph before accepting traffic
//   --slow-query-ms MS   log requests slower than MS (structured one-line
//                        records; 0 = off, default)
//   --slow-query-log F   append slow-query records to file F (default stderr)
//
// Monitoring: the `metrics` admin word returns a Prometheus text exposition
// (request counters, per-stage latency summaries, cache and admission
// state), `trace` the recent-request ring as chrome://tracing JSON. Set
// C3_OBS=off to disable all telemetry recording.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "c3list.hpp"
#include "graph/gen/generators.hpp"
#include "graph/io.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

/// Splits "id=path"; empty id or path is an error.
bool split_spec(const std::string& spec, std::string& id, std::string& path) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) return false;
  id = spec.substr(0, eq);
  path = spec.substr(eq + 1);
  return true;
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--snapshot ID=PATH]... [--graph ID=PATH]... [--demo]\n"
      "          [--bind ADDR] [--port N] [--inflight N] [--inflight-total N]\n"
      "          [--cache N] [--idle-timeout SEC] [--prepare]\n"
      "          [--slow-query-ms MS] [--slow-query-log FILE]\n"
      "Serves the catalog over TCP: one '<graph-id> <query>' request per\n"
      "line, one answer per line; admin commands stats/metrics/trace/\n"
      "catalog/ping/quit.\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace c3;
  const CommandLine cli(argc, argv);
  if (cli.has_flag("help")) {
    usage(argv[0]);
    return 0;
  }

  CliqueService service;
  std::vector<std::string> ids;
  try {
    for (const std::string& spec : cli.get_all("snapshot")) {
      std::string id, path;
      if (!split_spec(spec, id, path)) {
        std::fprintf(stderr, "c3serve: bad --snapshot '%s' (want ID=PATH)\n", spec.c_str());
        return 2;
      }
      service.add_snapshot(id, path);
      ids.push_back(id);
    }
    for (const std::string& spec : cli.get_all("graph")) {
      std::string id, path;
      if (!split_spec(spec, id, path)) {
        std::fprintf(stderr, "c3serve: bad --graph '%s' (want ID=PATH)\n", spec.c_str());
        return 2;
      }
      service.add_graph(id, read_graph_any(path));
      ids.push_back(id);
    }
    if (cli.has_flag("demo")) {
      service.add_graph("social", social_like(3000, 24'000, 0.4, 7));
      service.add_graph("er", erdos_renyi(2000, 20'000, 11));
      ids.push_back("social");
      ids.push_back("er");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "c3serve: %s\n", e.what());
    return 1;
  }
  if (ids.empty()) {
    std::fprintf(stderr, "c3serve: no graphs registered (use --snapshot/--graph/--demo)\n");
    usage(argv[0]);
    return 2;
  }

  net::ServerOptions opts;
  opts.bind_address = cli.get_string("bind", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(cli.get_int("port", 7433));
  opts.max_inflight_per_graph = static_cast<int>(cli.get_int("inflight", 4));
  opts.max_inflight_total = static_cast<int>(cli.get_int("inflight-total", 0));
  opts.cache_capacity = static_cast<std::size_t>(cli.get_int("cache", 4096));
  opts.idle_timeout_seconds = cli.get_double("idle-timeout", 300.0);

  const double slow_ms = cli.get_double("slow-query-ms", 0.0);
  if (slow_ms > 0.0) {
    const std::string slow_log = cli.get_string("slow-query-log", "");
    if (slow_log.empty()) {
      obs::SlowQueryLog::global().configure(slow_ms * 1e-3);
    } else if (!obs::SlowQueryLog::global().configure_file(slow_ms * 1e-3, slow_log)) {
      std::fprintf(stderr, "c3serve: cannot open --slow-query-log '%s'\n", slow_log.c_str());
      return 2;
    }
    std::printf("c3serve: slow-query log at %.1f ms -> %s\n", slow_ms,
                slow_log.empty() ? "stderr" : slow_log.c_str());
  }

  if (cli.has_flag("prepare")) {
    for (const std::string& id : ids) {
      try {
        service.prepare(id);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "c3serve: prepare '%s': %s\n", id.c_str(), e.what());
        return 1;
      }
    }
  }

  net::CliqueServer server(service, opts);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "c3serve: %s\n", e.what());
    return 1;
  }
  // The port line goes out immediately and flushed — scripts (and the CLI
  // test) parse it to find an ephemeral port.
  std::printf("c3serve: listening on %s:%d (%zu graphs, cache %zu entries)\n",
              opts.bind_address.c_str(), server.port(), service.size(), opts.cache_capacity);
  std::printf("c3serve: search build: %s (best on this host: %s; override with C3_KERNEL)\n",
              bits::kernel_backend_name(bits::active_kernel_backend()),
              bits::kernel_backend_name(bits::best_kernel_backend()));
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("c3serve: shutting down\n");
  server.stop();
  const net::ServerStats stats = server.stats();
  std::printf("c3serve: served %llu requests over %llu connections (%llu cache hits)\n",
              static_cast<unsigned long long>(stats.frontend.requests),
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.frontend.cache_hits));
  return 0;
}
