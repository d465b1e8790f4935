#include "clique/c3list_cd.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel.hpp"
#include "util/timer.hpp"

namespace c3 {
namespace {

/// Fills `lg` with G[V'(e)] over `members` = V'(e), sorted by vertex id,
/// which serves as the inner total order (local id a for members[a]). The
/// pair {a, b} is an edge iff it is an edge of g *and* ordered after e: the
/// recursion must stay within the subgraph (V, E[e <=]) so that e is the
/// unique lowest-ordered edge of every clique reported under it. Each such
/// edge is a later arc stored at one of its two members, so every member
/// reads its own later arcs, down to the first at or before e. `slot`
/// (one entry per vertex, all zero on entry and on return) maps a member to
/// its local id + 1. A non-member target reads 0; its local id and both bit
/// masks become 0, so its two writes OR nothing into row 0, and no probe
/// branches, whatever the row width.
template <typename Pos>
void fill_candidate_graph(const EdgeOrderResult& order, std::span<const node_t> members,
                          edge_t epos, std::vector<std::uint32_t>& slot, LocalGraph& lg) {
  const int n = static_cast<int>(members.size());
  std::uint64_t* rows = lg.reset_for_fill(n);
  const auto words = static_cast<std::size_t>(lg.words());
  for (int a = 0; a < n; ++a)
    slot[members[static_cast<std::size_t>(a)]] = static_cast<std::uint32_t>(a + 1);
  for (int a = 0; a < n; ++a) {
    std::uint64_t* row_a = rows + static_cast<std::size_t>(a) * words;
    const std::uint64_t bit_a = std::uint64_t{1} << (a & 63);
    const auto word_a = static_cast<std::size_t>(a >> 6);
    for (const LaterArc<Pos>& arc : order.later<Pos>(members[static_cast<std::size_t>(a)])) {
      if (arc.position <= epos) break;
      const std::uint32_t s = slot[arc.target];
      const std::uint64_t keep = std::uint64_t{0} - (s != 0);
      const std::size_t b = (s - 1) & static_cast<std::uint32_t>(keep);
      row_a[b >> 6] |= (std::uint64_t{1} << (b & 63)) & keep;
      rows[b * words + word_a] |= bit_a & keep;
    }
  }
  for (const node_t v : members) slot[v] = 0;
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
  const bool wide = !order.later_arcs_wide.empty();
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
        if (w.member_slot.size() < g.num_nodes()) w.member_slot.assign(g.num_nodes(), 0);
        if (wide) {
          fill_candidate_graph<edge_t>(order, members, order.pos[e], w.member_slot, w.lg);
        } else {
          fill_candidate_graph<std::uint32_t>(order, members, order.pos[e], w.member_slot, w.lg);
        }
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
