// Snapshot bench — cold preparation vs snapshot open.
//
// For each smoke graph (the shared CI stand-ins plus one larger social
// graph, whose ratio the summary line reports) it measures the
// offline-prepare / online-serve split both ways:
//
//   cold      — construct a PreparedGraph and force full preparation
//               (prepare() + the upper-bound artifact), what every serving
//               process pays at startup without snapshots;
//   snapshot  — snapshot::write once, then Snapshot::open (mmap + checksum
//               verification), what a serving process pays instead.
//
// Reported per graph: best-of-reps prepare vs open seconds (and their
// ratio, reported only: no ratio fails the run, and it moves whenever
// preparation gets cheaper or dearer),
// first-query latency on both engines, snapshot file size, and the
// resident-set growth of cold preparation vs snapshot serving.
// Counts for k = 3..6 are cross-checked between both engines (non-zero exit
// on any mismatch, or if a snapshot query reports preprocessing).
//
//   ./bench_snapshot [--out BENCH_pr4.json] [--reps 3] [--scale 1.0]
//
// Schema: {"bench", "workers", "graphs": [{"name", n, m, "prepare_seconds",
// "open_seconds", "speedup_open_vs_prepare", "cold_first_query_seconds",
// "snapshot_first_query_seconds", "write_seconds", "snapshot_bytes",
// "rss_cold_kb", "rss_snapshot_kb"}], "largest": {"name", "speedup"}}
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "c3list.hpp"
#include "datasets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace c3;

/// Resident set size in KiB (0 where /proc is unavailable).
long rss_kb() {
#if defined(__linux__)
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atol(line.c_str() + 6);
  }
#endif
  return 0;
}

struct Row {
  std::string name;
  node_t n = 0;
  edge_t m = 0;
  double prepare_seconds = 0.0;
  double open_seconds = 0.0;
  double cold_first_query = 0.0;
  double snap_first_query = 0.0;
  double write_seconds = 0.0;
  std::uint64_t snapshot_bytes = 0;
  long rss_cold_kb = 0;
  long rss_snap_kb = 0;

  [[nodiscard]] double speedup() const {
    return open_seconds > 0.0 ? prepare_seconds / open_seconds : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const double scale = cli.get_double("scale", 1.0);
  const std::string out_path = cli.get_string("out", "BENCH_pr4.json");
  const std::filesystem::path snap_path =
      std::filesystem::temp_directory_path() / "c3_bench_snapshot.c3snap";

  // The shared CI smoke graphs plus one larger social graph: big enough that
  // preparation clearly dominates an mmap + checksum scan, small enough for
  // the CI release gate.
  std::vector<bench::SmokeGraph> graphs = bench::smoke_graphs();
  graphs.push_back({"social_like_xl",
                    social_like(static_cast<node_t>(20'000 * scale),
                                static_cast<edge_t>(160'000 * scale), 0.4, 7)});

  CliqueOptions opts;
  opts.algorithm = Algorithm::C3List;

  bool failed = false;
  std::vector<Row> rows;
  for (const bench::SmokeGraph& sg : graphs) {
    Row row;
    row.name = sg.name;
    row.n = sg.graph.num_nodes();
    row.m = sg.graph.num_edges();

    // Cold startup: full preparation, then the first query.
    const long rss_before_cold = rss_kb();
    std::optional<PreparedGraph> cold;
    for (int rep = 0; rep < reps; ++rep) {
      cold.emplace(sg.graph, opts);
      WallTimer timer;
      cold->prepare();
      (void)cold->clique_number_upper_bound();
      const double s = timer.seconds();
      row.prepare_seconds = rep == 0 ? s : std::min(row.prepare_seconds, s);
    }
    row.rss_cold_kb = rss_kb() - rss_before_cold;
    {
      WallTimer timer;
      (void)cold->count(4);
      row.cold_first_query = timer.seconds();
    }

    {
      WallTimer timer;
      snapshot::write(snap_path, *cold);
      row.write_seconds = timer.seconds();
    }
    row.snapshot_bytes = std::filesystem::file_size(snap_path);

    // Snapshot startup: mmap + validation, then the first query (which
    // faults the touched pages in — the honest first-hit cost).
    const long rss_before_snap = rss_kb();
    std::optional<snapshot::Snapshot> snap;
    for (int rep = 0; rep < reps; ++rep) {
      snap.reset();
      WallTimer timer;
      snap.emplace(snapshot::Snapshot::open(snap_path));
      const double s = timer.seconds();
      row.open_seconds = rep == 0 ? s : std::min(row.open_seconds, s);
    }
    {
      WallTimer timer;
      const CliqueResult r = snap->engine().count(4);
      row.snap_first_query = timer.seconds();
      if (r.stats.preprocess_seconds != 0.0) {
        std::printf("!! %s: snapshot query reported %.6f s of preprocessing\n", sg.name.c_str(),
                    r.stats.preprocess_seconds);
        failed = true;
      }
    }
    row.rss_snap_kb = rss_kb() - rss_before_snap;

    // Correctness gate: both engines must agree on every count.
    for (int k = 3; k <= 6; ++k) {
      const count_t a = cold->count(k).count;
      const count_t b = snap->engine().count(k).count;
      if (a != b) {
        std::printf("!! %s k=%d: cold %llu vs snapshot %llu\n", sg.name.c_str(), k,
                    static_cast<unsigned long long>(a), static_cast<unsigned long long>(b));
        failed = true;
      }
    }
    rows.push_back(row);
  }
  std::filesystem::remove(snap_path);

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "bench_snapshot: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\"bench\": \"snapshot\", \"workers\": %d, \"graphs\": [", num_workers());
  Table table({"graph", "prepare[s]", "open[s]", "speedup", "q1 cold[s]", "q1 snap[s]", "MB"});
  const Row* largest = &rows.front();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    if (r.m > largest->m) largest = &r;
    table.add_row({r.name, strfmt("%.4f", r.prepare_seconds), strfmt("%.4f", r.open_seconds),
                   strfmt("%.1fx", r.speedup()), strfmt("%.4f", r.cold_first_query),
                   strfmt("%.4f", r.snap_first_query),
                   strfmt("%.1f", static_cast<double>(r.snapshot_bytes) / (1024.0 * 1024.0))});
    std::fprintf(
        json,
        "%s{\"name\": \"%s\", \"n\": %u, \"m\": %llu, \"prepare_seconds\": %.6f, "
        "\"open_seconds\": %.6f, \"speedup_open_vs_prepare\": %.2f, "
        "\"cold_first_query_seconds\": %.6f, \"snapshot_first_query_seconds\": %.6f, "
        "\"write_seconds\": %.6f, \"snapshot_bytes\": %llu, \"rss_cold_kb\": %ld, "
        "\"rss_snapshot_kb\": %ld}",
        i > 0 ? ", " : "", r.name.c_str(), r.n, static_cast<unsigned long long>(r.m),
        r.prepare_seconds, r.open_seconds, r.speedup(), r.cold_first_query, r.snap_first_query,
        r.write_seconds, static_cast<unsigned long long>(r.snapshot_bytes), r.rss_cold_kb,
        r.rss_snap_kb);
  }
  std::fprintf(json, "], \"largest\": {\"name\": \"%s\", \"speedup\": %.2f}}\n",
               largest->name.c_str(), largest->speedup());
  std::fclose(json);

  table.print();
  std::printf("wrote %s; largest graph %s: snapshot open %.1fx faster than cold prepare\n",
              out_path.c_str(), largest->name.c_str(), largest->speedup());

  if (failed) {
    std::fprintf(stderr, "bench_snapshot: cold/snapshot disagreement\n");
    return 1;
  }
  return 0;
}
