// Ablation of the paper's core contribution: the relevant-pair pruning
// criterion (Figure 2; the Theta((1/(1-k/s))^k) work factor of Section 1.3).
//
// Runs c3List with the distance criterion enabled vs disabled and reports
// probed pairs and runtime. The prediction: the saving factor grows with k
// (it is the pruning that removes the straightforwardly exponential runtime
// growth in the clique size). The criterion shapes only Algorithm 2's walk,
// which a count no longer takes (it pivots, DESIGN.md §7), so both runs list
// with a no-op callback: the walk the criterion prunes, leaf by leaf.
#include <cstdio>

#include "c3list.hpp"
#include "datasets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

const c3::CliqueCallback walk_only = [](std::span<const c3::node_t>) { return true; };

}  // namespace

int main(int argc, char** argv) {
  const c3::CommandLine cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0);
  const int kmin = static_cast<int>(cli.get_int("kmin", 6));
  const int kmax = static_cast<int>(cli.get_int("kmax", 12));

  std::printf("# Ablation — relevant-pair pruning (delta_I(u,v) >= c-2)\n");
  std::printf("# 'saved' = probed pairs without pruning / with pruning; the paper predicts\n");
  std::printf("# the advantage grows with k, particularly for k approaching gamma.\n\n");

  for (const auto& make : {&c3::bench::bio_sc_ht_like, &c3::bench::jester_like}) {
    const c3::bench::Dataset ds = make(scale);
    std::printf("## %s stand-in\n", ds.name.c_str());
    c3::Table table({"k", "pairs(pruned)", "pairs(full)", "saved", "time(pruned)[s]",
                     "time(full)[s]", "speedup", "#cliques"});
    for (int k = kmin; k <= kmax; ++k) {
      c3::CliqueOptions with, without;
      with.distance_pruning = true;
      without.distance_pruning = false;

      c3::WallTimer t1;
      const c3::CliqueResult rw = c3::list_cliques(ds.graph, k, walk_only, with);
      const double time_with = t1.seconds();
      c3::WallTimer t2;
      const c3::CliqueResult ro = c3::list_cliques(ds.graph, k, walk_only, without);
      const double time_without = t2.seconds();
      if (rw.count != ro.count) std::printf("!! count mismatch at k=%d\n", k);

      const double saved = rw.stats.pairs_probed == 0
                               ? 0.0
                               : static_cast<double>(ro.stats.pairs_probed) /
                                     static_cast<double>(rw.stats.pairs_probed);
      table.add_row({std::to_string(k), c3::with_commas(rw.stats.pairs_probed),
                     c3::with_commas(ro.stats.pairs_probed), c3::strfmt("%.2fx", saved),
                     c3::strfmt("%.3f", time_with), c3::strfmt("%.3f", time_without),
                     c3::strfmt("%.2fx", time_with > 0 ? time_without / time_with : 0.0),
                     c3::with_commas(rw.count)});
    }
    table.print();
    std::printf("\n");
  }
  return 0;
}
