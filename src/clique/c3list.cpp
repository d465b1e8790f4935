#include "clique/c3list.hpp"

#include <vector>

#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel.hpp"
#include "util/timer.hpp"

namespace c3 {

CliqueResult c3list_search(const Digraph& dag, const EdgeCommunities& comms, int k,
                           const CliqueCallback* callback, const CliqueOptions& opts,
                           QueryScratch& scratch) {
  CliqueResult result;
  result.stats.order_quality = dag.max_out_degree();
  result.stats.gamma = comms.max_size();

  WallTimer search_timer;
  // Algorithm 1, line 2: all edges with at least k-2 triangles.
  const auto needed = static_cast<node_t>(k - 2);
  const std::vector<edge_t> tasks = pack_index<edge_t>(
      dag.num_arcs(), [&](std::size_t e) { return comms.size(static_cast<edge_t>(e)) >= needed; });
  result.stats.top_level_tasks = tasks.size();

  scratch.reset_query(callback);

  parallel_for_dynamic(
      0, tasks.size(),
      [&](std::size_t t) {
        if (scratch.halted()) return;
        CliqueScratch& w = scratch.local();
        const edge_t e = tasks[t];
        const auto members = comms.members(e);

        // k = 3 counting needs no adjacency at all: every community member
        // closes a triangle with the supporting edge.
        if (k == 3 && callback == nullptr) {
          w.count += members.size();
          ++w.ctr.recursive_calls;
          w.ctr.leaf_work += members.size();
          return;
        }

        // Rename C(e) to consecutive integers and build the indicator-table
        // adjacency of Dag[C(e)] (Section 2.2 preprocessing).
        build_local_graph(dag, members, w.lg);

        w.ctx.lg = &w.lg;
        w.ctx.prune = opts.distance_pruning;
        w.ctx.ctr = &w.ctr;
        if (callback != nullptr) {
          w.member_orig.resize(members.size());
          for (std::size_t i = 0; i < members.size(); ++i)
            w.member_orig[i] = dag.original_id(members[i]);
          w.ctx.member_to_orig = w.member_orig.data();
          w.ctx.clique_stack.clear();
          w.ctx.clique_stack.push_back(dag.original_id(dag.arc_source(e)));
          w.ctx.clique_stack.push_back(dag.original_id(dag.arc_target(e)));
        }

        // Algorithm 1, line 3: recurse on the community with c = k - 2.
        w.count += search_cliques_all(w.ctx, k - 2, opts.triangle_growth);
      },
      1);

  scratch.merge_into(result);
  result.stats.search_seconds = search_timer.seconds();
  return result;
}

}  // namespace c3
