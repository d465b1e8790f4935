#include "clique/hybrid.hpp"

#include <algorithm>
#include <vector>

#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "parallel/parallel.hpp"
#include "util/bitwords.hpp"
#include "util/timer.hpp"

namespace c3 {
namespace {

/// Small-universe exact degeneracy order over a LocalGraph: the same
/// Batagelj-Zaversnik sweep as order/degeneracy.cpp, but on a universe of
/// O(s) vertices — so the greedy's linear depth only touches gamma, not n.
/// That is the whole point of the hybrid (Section 4.2).
void local_degeneracy_order(const LocalGraph& lg, std::vector<int>& order,
                            LocalDegeneracyScratch& s) {
  const int n = lg.size();
  order.clear();
  if (n == 0) return;

  // Materialize adjacency lists from the bitset rows, counting each degree
  // as its row is walked (no per-row popcount).
  s.adj_offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  s.degree.assign(static_cast<std::size_t>(n), 0);
  s.adj.clear();
  int max_deg = 0;
  for (int v = 0; v < n; ++v) {
    bits::for_each_bit(lg.row(v), static_cast<std::size_t>(lg.words()),
                       [&](std::size_t w) { s.adj.push_back(static_cast<int>(w)); });
    const int end = static_cast<int>(s.adj.size());
    const int d = end - s.adj_offsets[static_cast<std::size_t>(v)];
    s.adj_offsets[static_cast<std::size_t>(v) + 1] = end;
    s.degree[static_cast<std::size_t>(v)] = d;
    max_deg = std::max(max_deg, d);
  }

  // Batagelj-Zaversnik bin sweep (see order/degeneracy.cpp for the argument).
  s.bin.assign(static_cast<std::size_t>(max_deg) + 2, 0);
  for (int v = 0; v < n; ++v) s.bin[static_cast<std::size_t>(s.degree[static_cast<std::size_t>(v)]) + 1]++;
  for (int d = 0; d <= max_deg; ++d) s.bin[static_cast<std::size_t>(d) + 1] += s.bin[static_cast<std::size_t>(d)];
  s.verts.assign(static_cast<std::size_t>(n), 0);
  s.pos.assign(static_cast<std::size_t>(n), 0);
  {
    std::vector<int> cursor(s.bin.begin(), s.bin.end() - 1);
    for (int v = 0; v < n; ++v) {
      const int p = cursor[static_cast<std::size_t>(s.degree[static_cast<std::size_t>(v)])]++;
      s.verts[static_cast<std::size_t>(p)] = v;
      s.pos[static_cast<std::size_t>(v)] = p;
    }
  }
  order.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int v = s.verts[static_cast<std::size_t>(i)];
    order[static_cast<std::size_t>(i)] = v;
    for (int e = s.adj_offsets[static_cast<std::size_t>(v)];
         e < s.adj_offsets[static_cast<std::size_t>(v) + 1]; ++e) {
      const int w = s.adj[static_cast<std::size_t>(e)];
      if (s.degree[static_cast<std::size_t>(w)] > s.degree[static_cast<std::size_t>(v)]) {
        const int dw = s.degree[static_cast<std::size_t>(w)];
        const int pw = s.pos[static_cast<std::size_t>(w)];
        const int pt = s.bin[static_cast<std::size_t>(dw)];
        const int t = s.verts[static_cast<std::size_t>(pt)];
        if (w != t) {
          std::swap(s.verts[static_cast<std::size_t>(pw)], s.verts[static_cast<std::size_t>(pt)]);
          s.pos[static_cast<std::size_t>(w)] = pt;
          s.pos[static_cast<std::size_t>(t)] = pw;
        }
        ++s.bin[static_cast<std::size_t>(dw)];
        --s.degree[static_cast<std::size_t>(w)];
      }
    }
  }
}

}  // namespace

CliqueResult hybrid_search(const Digraph& dag, int k, const CliqueCallback* callback,
                           const CliqueOptions& opts, QueryScratch& scratch) {
  CliqueResult result;
  result.stats.order_quality = dag.max_out_degree();
  result.stats.gamma = result.stats.order_quality;

  WallTimer search_timer;
  const node_t n = dag.num_nodes();
  result.stats.top_level_tasks = n;
  scratch.reset_query(callback);

  parallel_for_dynamic(
      0, n,
      [&](std::size_t v) {
        if (scratch.halted()) return;
        const auto members = dag.out_neighbors(static_cast<node_t>(v));
        if (static_cast<int>(members.size()) < k - 1) return;
        CliqueScratch& w = scratch.local();

        // Induce G[N+(v)] in approximate-rank space...
        build_local_graph(dag, members, w.lg_aux);
        // ...compute its exact degeneracy order...
        local_degeneracy_order(w.lg_aux, w.inner_order, w.deg);
        const int sz = w.lg_aux.size();
        w.inner_rank.assign(static_cast<std::size_t>(sz), 0);
        for (int r = 0; r < sz; ++r)
          w.inner_rank[static_cast<std::size_t>(w.inner_order[static_cast<std::size_t>(r)])] = r;
        // ...and rename the subgraph into inner-rank space.
        w.lg.reset(sz);
        for (int a = 0; a < sz; ++a) {
          bits::for_each_bit(w.lg_aux.row(a), static_cast<std::size_t>(w.lg_aux.words()),
                             [&](std::size_t b) {
                               if (static_cast<int>(b) > a)
                                 w.lg.add_edge(w.inner_rank[static_cast<std::size_t>(a)],
                                               w.inner_rank[b]);
                             });
        }

        w.ctx.lg = &w.lg;
        w.ctx.prune = opts.distance_pruning;
        w.ctx.ctr = &w.ctr;
        if (callback != nullptr) {
          w.member_orig.resize(members.size());
          for (int r = 0; r < sz; ++r) {
            const int approx_local = w.inner_order[static_cast<std::size_t>(r)];
            w.member_orig[static_cast<std::size_t>(r)] =
                dag.original_id(members[static_cast<std::size_t>(approx_local)]);
          }
          w.ctx.member_to_orig = w.member_orig.data();
          w.ctx.clique_stack.clear();
          w.ctx.clique_stack.push_back(dag.original_id(static_cast<node_t>(v)));
        }

        // Search (k-1)-cliques in G[N+(v)]; each completes with v.
        add_count(w.count, search_cliques_all(w.ctx, k - 1, opts.triangle_growth), w.ctr);
      },
      1);

  scratch.merge_into(result);
  result.stats.search_seconds = search_timer.seconds();
  return result;
}

}  // namespace c3
