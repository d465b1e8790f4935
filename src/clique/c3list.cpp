#include "clique/c3list.hpp"

#include <vector>

#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel.hpp"
#include "parallel/reduce.hpp"
#include "util/timer.hpp"

namespace c3 {
namespace {

/// Fills `lg` with G[N+(u)] over the first `s` out-neighbours `out` of u
/// (local id j for out[j], so local `<` is rank order), straight from u's
/// communities: b ∈ C(u→out[j]) exactly when b→out[j] is an arc inside
/// N+(u), so community j is row j's lower half. Each community is located
/// in out[0, j) by one linear merge (both are in rank order): O(s) per arc,
/// O(s²) per source. Appends every community's local ids to `ids`, in arc
/// order.
void build_source_graph(std::span<const node_t> out, const EdgeCommunities& comms, edge_t first,
                        int s, LocalGraph& lg, std::vector<int>& ids) {
  lg.reset(s);
  ids.clear();
  for (int j = 0; j < s; ++j) {
    auto lo = out.begin();
    for (const node_t b : comms.members(first + static_cast<edge_t>(j))) {
      while (*lo != b) ++lo;  // b is in out[0, j)
      const int a = static_cast<int>(lo - out.begin());
      lg.add_edge(a, j);
      ids.push_back(a);
    }
  }
}

}  // namespace

CliqueResult c3list_search(const Digraph& dag, const EdgeCommunities& comms, int k,
                           const CliqueCallback* callback, const CliqueOptions& opts,
                           QueryScratch& scratch) {
  CliqueResult result;
  result.stats.order_quality = dag.max_out_degree();
  result.stats.gamma = comms.max_size();

  WallTimer search_timer;
  // Algorithm 1, line 2: all edges with at least k-2 triangles, grouped by
  // source — one top-level task per source with at least one of them.
  const auto needed = static_cast<node_t>(k - 2);
  const auto arc_base = dag.raw_out_offsets();
  const auto qualifies = [&](std::size_t e) {
    return comms.size(static_cast<edge_t>(e)) >= needed;
  };
  result.stats.top_level_tasks = parallel_sum<count_t>(
      0, dag.num_arcs(), [&](std::size_t e) { return count_t{qualifies(e) ? 1u : 0u}; });
  const std::vector<node_t> sources = pack_index<node_t>(dag.num_nodes(), [&](std::size_t u) {
    for (edge_t e = arc_base[u]; e < arc_base[u + 1]; ++e)
      if (qualifies(e)) return true;
    return false;
  });

  scratch.reset_query(callback);
  const bool listing = callback != nullptr;

  parallel_for_dynamic(
      0, sources.size(),
      [&](std::size_t t) {
        if (scratch.halted()) return;
        CliqueScratch& w = scratch.local();
        const node_t u = sources[t];
        const edge_t first = arc_base[u];
        const auto out = dag.out_neighbors(u);
        w.ctx.prune = opts.distance_pruning;
        w.ctx.ctr = &w.ctr;

        // Every community of u's arcs lies in N+(u), so one local graph over
        // N+(u) — cut after u's last qualifying target, past which no
        // candidate lies — serves all of them (Section 2.2 preprocessing,
        // once per source instead of once per edge). k = 3 builds nothing:
        // every community member closes a triangle with its arc.
        int s = static_cast<int>(out.size());
        while (comms.size(first + static_cast<edge_t>(s - 1)) < needed) --s;
        if (k > 3) {
          build_source_graph(out, comms, first, s, w.lg, w.local_ids);
          w.ctx.lg = &w.lg;
          if (listing) {
            w.member_orig.resize(static_cast<std::size_t>(s));
            for (int j = 0; j < s; ++j)
              w.member_orig[static_cast<std::size_t>(j)] = dag.original_id(out[j]);
            w.ctx.member_to_orig = w.member_orig.data();
          }
        }

        std::size_t at = 0;  // community j's first slot in local_ids
        for (int j = 0; j < s; ++j) {
          const auto members = comms.members(first + static_cast<edge_t>(j));
          const std::size_t from = at;
          at += members.size();
          if (members.size() < needed) continue;
          if (scratch.halted()) return;
          if (listing) w.ctx.clique_stack.assign({dag.original_id(u), dag.original_id(out[j])});
          // Algorithm 1, line 3: recurse on C(u→out[j]) with c = k - 2.
          if (k == 3) {
            add_count(w.count,
                      search_base_case(w.ctx, members,
                                       [&](node_t b) { return dag.original_id(b); }),
                      w.ctr);
          } else {
            const auto candidates = std::span<const int>(w.local_ids).subspan(from, members.size());
            add_count(w.count, search_cliques_all(w.ctx, k - 2, opts.triangle_growth, candidates),
                      w.ctr);
          }
        }
      },
      1);

  scratch.merge_into(result);
  result.stats.search_seconds = search_timer.seconds();
  return result;
}

}  // namespace c3
