#include "clique/arbcount.hpp"

#include <vector>

#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "parallel/parallel.hpp"
#include "util/bitwords.hpp"
#include "util/timer.hpp"

namespace c3 {

// Early-stop state rides in w.ctx (SearchContext::poll_stop / request_stop),
// the same shared-flag mechanism the community-centric searches use. The
// vertex-at-a-time recursion itself lives in recursive.cpp
// (search_cliques_vertex) where kcList's dense-subproblem path shares it.

CliqueResult arbcount_search(const Digraph& dag, int k, const CliqueCallback* callback,
                             const CliqueOptions& opts, QueryScratch& scratch) {
  (void)opts;
  CliqueResult result;
  result.stats.order_quality = dag.max_out_degree();
  result.stats.gamma = result.stats.order_quality;

  WallTimer search_timer;
  const node_t n = dag.num_nodes();
  result.stats.top_level_tasks = n;
  scratch.reset_query(callback);

  parallel_for_dynamic(
      0, n,
      [&](std::size_t u) {
        if (scratch.halted()) return;
        const auto members = dag.out_neighbors(static_cast<node_t>(u));
        if (static_cast<int>(members.size()) < k - 1) return;
        CliqueScratch& w = scratch.local();

        // Induce and rename G[N+(u)] (the per-vertex re-representation).
        build_local_graph(dag, members, w.lg);

        w.ctx.lg = &w.lg;
        w.ctx.ctr = &w.ctr;
        ++w.ctr.dense_subproblems;
        if (callback != nullptr) {
          w.member_orig.resize(members.size());
          for (std::size_t i = 0; i < members.size(); ++i)
            w.member_orig[i] = dag.original_id(members[i]);
          w.ctx.member_to_orig = w.member_orig.data();
          w.ctx.clique_stack.clear();
          w.ctx.clique_stack.push_back(dag.original_id(static_cast<node_t>(u)));
        }

        // Search (k-1)-cliques vertex-at-a-time; each completes with u.
        add_count(w.count, search_cliques_vertex_all(w.ctx, k - 1), w.ctr);
      },
      1);

  scratch.merge_into(result);
  result.stats.search_seconds = search_timer.seconds();
  return result;
}

}  // namespace c3
