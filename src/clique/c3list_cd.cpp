#include "clique/c3list_cd.hpp"

#include <algorithm>

#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel.hpp"
#include "util/timer.hpp"

namespace c3 {
namespace {

/// Builds the local subgraph over V'(e) = `members` (sorted by vertex id,
/// which serves as the inner total order): the pair {a, b} is an edge iff it
/// is an edge of g *and* ordered after e in the edge order. The recursion
/// must stay within the subgraph (V, E[e <=]) so that e is the unique
/// lowest-ordered edge of every clique reported under it.
void build_local_graph_cd(const Graph& g, std::span<const node_t> members,
                          std::span<const edge_t> edge_pos, edge_t epos, LocalGraph& lg) {
  const int n = static_cast<int>(members.size());
  lg.reset(n);
  for (int a = 0; a < n; ++a) {
    const node_t va = members[static_cast<std::size_t>(a)];
    const auto nbrs = g.neighbors(va);
    const auto ids = g.edge_ids(va);
    // Two-pointer over (neighbors of va) x (members above a); each local
    // edge is discovered once, at its lower endpoint.
    std::size_t i = 0;
    std::size_t j = static_cast<std::size_t>(a) + 1;
    while (i < nbrs.size() && j < members.size()) {
      if (nbrs[i] < members[j]) {
        ++i;
      } else if (nbrs[i] > members[j]) {
        ++j;
      } else {
        if (edge_pos[ids[i]] > epos) lg.add_edge(a, static_cast<int>(j));
        ++i;
        ++j;
      }
    }
  }
}

}  // namespace

CliqueResult c3list_cd_search(const Graph& g, const EdgeOrderResult& order, int k,
                              const CliqueCallback* callback, const CliqueOptions& opts,
                              QueryScratch& scratch) {
  CliqueResult result;
  result.stats.order_quality = order.sigma;

  WallTimer search_timer;
  // Algorithm 3, line 3: every edge whose candidate set can hold k-2 more
  // vertices spawns a search task.
  const auto needed = static_cast<node_t>(k - 2);
  const std::vector<edge_t> tasks = pack_index<edge_t>(g.num_edges(), [&](std::size_t e) {
    return order.candidate_count(static_cast<edge_t>(e)) >= needed;
  });
  result.stats.top_level_tasks = tasks.size();

  node_t gamma = 0;
  for (const edge_t e : tasks) gamma = std::max(gamma, order.candidate_count(e));
  result.stats.gamma = gamma;

  const auto endpoints = g.endpoints();
  scratch.reset_query(callback);

  parallel_for_dynamic(
      0, tasks.size(),
      [&](std::size_t t) {
        if (scratch.halted()) return;
        CliqueScratch& w = scratch.local();
        const edge_t e = tasks[t];
        const auto members = order.candidates(e);
        w.ctx.prune = opts.distance_pruning;
        w.ctx.ctr = &w.ctr;
        if (callback != nullptr) w.ctx.clique_stack.assign({endpoints[e].u, endpoints[e].v});
        // k = 3 needs no adjacency: every member of V'(e) closes a triangle
        // with e (and is an original vertex id already).
        if (k == 3) {
          add_count(w.count, search_base_case(w.ctx, members, [](node_t v) { return v; }), w.ctr);
          return;
        }
        // Algorithm 3, line 4: V' <- community of e among later edges.
        build_local_graph_cd(g, members, order.pos, order.pos[e], w.lg);
        w.ctx.lg = &w.lg;
        // V'(e) members are original vertex ids already.
        w.ctx.member_to_orig = members.data();
        // Algorithm 3, line 5: recurse with c = k - 2.
        add_count(w.count, search_cliques_all(w.ctx, k - 2, opts.triangle_growth), w.ctr);
      },
      1);

  scratch.merge_into(result);
  result.stats.search_seconds = search_timer.seconds();
  return result;
}

}  // namespace c3
