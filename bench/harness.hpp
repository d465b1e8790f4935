// Shared bench harness: reruns one of the paper's figure series
// (total runtime of c3List vs ArbCount vs kcList for k = 6..10) on a dataset
// stand-in and prints the same rows the figure reports.
//
// Environment / flags:
//   C3_BENCH_REPS   repetitions per measurement (default 3; paper used >=10)
//   --scale X       grow/shrink the generated dataset
//   --kmin/--kmax   clique size range (default 6..10 like the figures)
//   --csv           additionally dump a CSV block for plotting
//   --prepared      run the k sweep through one PreparedGraph per algorithm
//                   (prepare once, search per k) and report prepare vs
//                   search seconds separately
#pragma once

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "c3list.hpp"
#include "datasets.hpp"
#include "util/cli.hpp"
#include "util/run_stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace c3::bench {

struct FigureConfig {
  std::string figure;      ///< e.g. "Figure 8b"
  std::string paper_ref;   ///< the paper's qualitative takeaway to compare against
  int kmin = 6;
  int kmax = 10;
};

inline const std::vector<Algorithm> kFigureAlgorithms = {Algorithm::C3List, Algorithm::ArbCount,
                                                         Algorithm::KCList};

/// Times one full run (preprocessing + search, like the paper's "Total
/// Runtime") of `alg` on `g`.
inline double timed_run(const Graph& g, int k, Algorithm alg, count_t& count_out) {
  CliqueOptions opts;
  opts.algorithm = alg;
  WallTimer timer;
  const CliqueResult r = count_cliques(g, k, opts);
  const double t = timer.seconds();
  count_out = r.count;
  return t;
}

/// Prepared-mode sweep: one PreparedGraph per algorithm, preparation timed
/// once, only the k-dependent search timed per query. The "amortized total"
/// column shows what the one-shot path would have re-paid per k.
inline void run_figure_prepared(const FigureConfig& cfg, const Dataset& ds,
                                const CommandLine& cli) {
  const int reps = static_cast<int>(env_int("C3_BENCH_REPS", 3));
  const int kmin = static_cast<int>(cli.get_int("kmin", cfg.kmin));
  const int kmax = static_cast<int>(cli.get_int("kmax", cfg.kmax));
  if (kmax < kmin) {
    std::printf("# %s: empty k range (%d..%d)\n", cfg.figure.c_str(), kmin, kmax);
    return;
  }
  const auto n_algs = kFigureAlgorithms.size();
  const auto n_ks = static_cast<std::size_t>(kmax - kmin + 1);

  std::printf("# %s — %s, prepared query engine (prepare once, search per k)\n",
              cfg.figure.c_str(), ds.name.c_str());
  std::printf("# %d repetitions per point\n\n", reps);

  std::vector<RunStats> prep(n_algs);
  std::vector<std::vector<RunStats>> search(n_algs, std::vector<RunStats>(n_ks));
  std::vector<count_t> counts(n_ks, 0);

  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t a = 0; a < n_algs; ++a) {
      CliqueOptions opts;
      opts.algorithm = kFigureAlgorithms[a];
      const PreparedGraph engine(ds.graph, opts);
      WallTimer prep_timer;
      engine.prepare();
      prep[a].add(prep_timer.seconds());
      for (int k = kmin; k <= kmax; ++k) {
        const auto ki = static_cast<std::size_t>(k - kmin);
        const CliqueResult r = engine.count(k);
        search[a][ki].add(r.stats.search_seconds);
        if (rep == 0 && a == 0) {
          counts[ki] = r.count;
        } else if (r.count != counts[ki]) {
          std::printf("!! count mismatch at k=%d: %llu vs %llu\n", k,
                      static_cast<unsigned long long>(r.count),
                      static_cast<unsigned long long>(counts[ki]));
        }
      }
    }
  }

  Table prep_table({"algorithm", "prepare[s]", "std%"});
  for (std::size_t a = 0; a < n_algs; ++a) {
    prep_table.add_row({algorithm_name(kFigureAlgorithms[a]), strfmt("%.3f", prep[a].mean()),
                        strfmt("%.1f%%", 100.0 * prep[a].rel_stddev())});
  }
  prep_table.print();
  std::printf("\n");

  Table table({"k", "c3List[s]", "ArbCount[s]", "kcList[s]", "#cliques", "prep/search(c3)"});
  for (int k = kmin; k <= kmax; ++k) {
    const auto ki = static_cast<std::size_t>(k - kmin);
    const double c3 = search[0][ki].mean();
    table.add_row({std::to_string(k), strfmt("%.3f", c3), strfmt("%.3f", search[1][ki].mean()),
                   strfmt("%.3f", search[2][ki].mean()), with_commas(counts[ki]),
                   strfmt("%.2fx", c3 > 0.0 ? prep[0].mean() / c3 : 0.0)});
  }
  table.print();

  if (cli.has_flag("csv")) {
    std::printf("\nk,c3list_search,arbcount_search,kclist_search\n");
    for (int k = kmin; k <= kmax; ++k) {
      const auto ki = static_cast<std::size_t>(k - kmin);
      std::printf("%d,%.4f,%.4f,%.4f\n", k, search[0][ki].mean(), search[1][ki].mean(),
                  search[2][ki].mean());
    }
  }
}

inline void run_figure(const FigureConfig& cfg, const Dataset& ds, const CommandLine& cli) {
  if (cli.has_flag("prepared")) {
    run_figure_prepared(cfg, ds, cli);
    return;
  }
  const int reps = static_cast<int>(env_int("C3_BENCH_REPS", 3));
  const int kmin = static_cast<int>(cli.get_int("kmin", cfg.kmin));
  const int kmax = static_cast<int>(cli.get_int("kmax", cfg.kmax));

  const GraphStats stats = compute_stats(ds.graph);
  std::printf("# %s — %s (stand-in: %s)\n", cfg.figure.c_str(), ds.name.c_str(),
              ds.generator.c_str());
  std::printf("# %s\n", ds.paper_note.c_str());
  std::printf("# ours:  |V|=%s |E|=%s |T|=%s s=%u E/V=%.1f T/V=%.1f T/E=%.1f\n",
              with_commas(stats.nodes).c_str(), with_commas(stats.edges).c_str(),
              with_commas(stats.triangles).c_str(), stats.degeneracy, stats.edges_per_node,
              stats.triangles_per_node, stats.triangles_per_edge);
  std::printf("# paper reference: %s\n", cfg.paper_ref.c_str());
  std::printf("# %d repetitions per point (paper: >=10), %d workers\n\n", reps, num_workers());

  Table table({"k", "c3List[s]", "ArbCount[s]", "kcList[s]", "std%max", "#cliques", "fastest",
               "c3/best-base"});
  std::vector<std::array<double, 3>> series;

  for (int k = kmin; k <= kmax; ++k) {
    std::array<RunStats, 3> per_alg;
    count_t count = 0;
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t a = 0; a < kFigureAlgorithms.size(); ++a) {
        count_t c = 0;
        per_alg[a].add(timed_run(ds.graph, k, kFigureAlgorithms[a], c));
        if (rep == 0 && a == 0) {
          count = c;
        } else if (c != count) {
          std::printf("!! count mismatch at k=%d: %llu vs %llu\n", k,
                      static_cast<unsigned long long>(c),
                      static_cast<unsigned long long>(count));
        }
      }
    }
    const double c3 = per_alg[0].mean();
    const double arb = per_alg[1].mean();
    const double kcl = per_alg[2].mean();
    const double best_base = std::min(arb, kcl);
    double worst_rel = 0.0;
    for (const auto& s : per_alg) worst_rel = std::max(worst_rel, s.rel_stddev());
    const char* fastest = c3 <= best_base ? "c3List" : (arb <= kcl ? "ArbCount" : "kcList");
    table.add_row({std::to_string(k), strfmt("%.3f", c3), strfmt("%.3f", arb),
                   strfmt("%.3f", kcl), strfmt("%.1f%%", 100.0 * worst_rel), with_commas(count),
                   fastest, strfmt("%.2fx", best_base / c3)});
    series.push_back({c3, arb, kcl});
  }
  table.print();

  if (cli.has_flag("csv")) {
    std::printf("\nk,c3list,arbcount,kclist\n");
    for (std::size_t i = 0; i < series.size(); ++i) {
      std::printf("%d,%.4f,%.4f,%.4f\n", kmin + static_cast<int>(i), series[i][0], series[i][1],
                  series[i][2]);
    }
  }
}

}  // namespace c3::bench
