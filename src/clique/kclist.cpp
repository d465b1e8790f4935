#include "clique/kclist.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "clique/combinatorics.hpp"
#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "parallel/parallel.hpp"
#include "util/timer.hpp"

namespace c3 {
namespace {

/// One top-level task's G[N+(u)] in SubDagScratch, renumbered to local ids
/// 0..d-1 in rank order. Invariant at level l: for every v in S_l, the
/// first d_l(v) = degree_at(l)[v] entries of row(v) are exactly v's
/// neighbours in S_l (those labelled l).
struct SubDag {
  int d;
  const int* offsets;
  int* adj;
  std::uint8_t* label;
  int* degree;  // d_l at degree + l·d
  const CliqueCallback* callback;
  const node_t* member_orig;

  [[nodiscard]] int* row(int v) const noexcept { return adj + offsets[v]; }
  [[nodiscard]] int* degree_at(int l) const noexcept {
    return degree + static_cast<std::size_t>(l) * static_cast<std::size_t>(d);
  }
};

/// Moves the entries of row[0, len) labelled `l` to the front; returns how
/// many there are.
int partition_labelled(int* row, int len, const std::uint8_t* label, std::uint8_t l) noexcept {
  int kept = 0;
  while (kept < len) {
    if (label[row[kept]] == l) {
      ++kept;
    } else {
      std::swap(row[kept], row[--len]);
    }
  }
  return kept;
}

/// Populates s.offsets / s.adj with G[members] (global ranks, sorted
/// ascending) over local ids, each row holding exactly its matches — the
/// sorted two-pointer walk of build_local_graph.
void build_sub_dag(const Digraph& dag, std::span<const node_t> members, SubDagScratch& s) {
  const std::size_t d = members.size();
  s.offsets.resize(d + 1);
  s.offsets[0] = 0;
  s.adj.clear();
  for (std::size_t a = 0; a < d; ++a) {
    const auto out = dag.out_neighbors(members[a]);
    std::size_t i = 0;
    std::size_t j = a + 1;
    while (i < out.size() && j < d) {
      if (out[i] < members[j]) {
        ++i;
      } else if (out[i] > members[j]) {
        ++j;
      } else {
        s.adj.push_back(static_cast<int>(j));
        ++i;
        ++j;
      }
    }
    s.offsets[a + 1] = static_cast<int>(s.adj.size());
  }
}

/// The CSR closed form for a complete candidate set of `size` vertices:
/// C(size, c) c-cliques, booked as one closed_form_sets whose cliques are
/// leaf_work. nullopt when C(size, c) overflows count_t; the caller then
/// walks the set instead.
[[nodiscard]] std::optional<count_t> closed_form_cliques(count_t size, int c,
                                                         LocalCounters& ctr) noexcept {
  const std::optional<count_t> n = checked_binomial(size, static_cast<count_t>(c));
  if (n) {
    ++ctr.closed_form_sets;
    ctr.leaf_work += *n;
  }
  return n;
}

// Early-stop state rides in w.ctx (SearchContext::poll_stop / request_stop),
// the same shared-flag mechanism the community-centric searches use.

/// Counts (and in listing mode reports) the l-cliques of G[S], S = S[0, size).
/// `arcs` = Σ d_l(v) over S, the arcs of G[S], summed by the caller as it
/// computed the sub-degrees.
count_t kclist_rec(const SubDag& g, CliqueScratch& w, const int* S, int size, std::int64_t arcs,
                   int l) {
  ++w.ctr.recursive_calls;
  if (w.ctx.poll_stop()) return 0;
  const int* deg = g.degree_at(l);

  // A count takes a complete S in closed form: G[S] is a DAG, so it is
  // complete exactly when it has |S|(|S|-1)/2 arcs, and then holds C(|S|, l)
  // l-cliques (DESIGN.md §7, "Counting by pivoting").
  if (g.callback == nullptr && l >= 3 &&
      arcs == static_cast<std::int64_t>(size) * (size - 1) / 2) {
    if (const std::optional<count_t> n =
            closed_form_cliques(static_cast<count_t>(size), l, w.ctr))
      return *n;
  }

  if (l == 2) {
    // Every arc left inside S_2 closes a clique: d_2(v) of them leave v.
    count_t found = 0;
    if (g.callback == nullptr) {
      for (int i = 0; i < size; ++i) found += static_cast<count_t>(deg[S[i]]);
    } else {
      std::vector<node_t>& stack = w.ctx.clique_stack;
      for (int i = 0; i < size; ++i) {
        const int v = S[i];
        const int* row = g.row(v);
        for (int j = 0; j < deg[v]; ++j) {
          if (w.ctx.poll_stop()) return found;
          ++found;
          stack.push_back(g.member_orig[v]);
          stack.push_back(g.member_orig[row[j]]);
          if (!(*g.callback)(std::span<const node_t>(stack))) w.ctx.request_stop();
          stack.pop_back();
          stack.pop_back();
          if (w.ctx.stopped) return found;
        }
      }
    }
    w.ctr.leaf_work += found;
    return found;
  }

  const auto below = static_cast<std::uint8_t>(l - 1);
  int* next_deg = g.degree_at(l - 1);
  count_t total = 0;
  for (int i = 0; i < size; ++i) {
    if (w.ctx.poll_stop()) break;
    const int v = S[i];
    // Descend into N+(v) ∩ S_l: exactly the first d_l(v) entries of row(v),
    // so every pair read there is a hit.
    const int dv = deg[v];
    w.ctr.pairs_probed += static_cast<count_t>(dv);
    w.ctr.edges_matched += static_cast<count_t>(dv);
    if (dv < l - 1) continue;
    const int* next = g.row(v);
    for (int j = 0; j < dv; ++j) g.label[next[j]] = below;
    // d_{l-1}(x): front-load x's neighbours that survived into S_{l-1}.
    std::int64_t next_arcs = 0;
    for (int j = 0; j < dv; ++j) {
      const int x = next[j];
      w.ctr.pairs_probed += static_cast<count_t>(deg[x]);
      next_deg[x] = partition_labelled(g.row(x), deg[x], g.label, below);
      next_arcs += next_deg[x];
    }
    if (g.callback != nullptr) w.ctx.clique_stack.push_back(g.member_orig[v]);
    add_count(total, kclist_rec(g, w, next, dv, next_arcs, l - 1), w.ctr);
    if (g.callback != nullptr) w.ctx.clique_stack.pop_back();
    // Backtrack: S_{l-1} rejoins S_l.
    for (int j = 0; j < dv; ++j) g.label[next[j]] = static_cast<std::uint8_t>(l);
  }
  return total;
}

}  // namespace

CliqueResult kclist_search(const Digraph& dag, int k, const CliqueCallback* callback,
                           const CliqueOptions& opts, QueryScratch& scratch) {
  (void)opts;
  if (k > 255) throw std::invalid_argument("kclist: k too large");
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
        const auto out = dag.out_neighbors(static_cast<node_t>(u));
        if (static_cast<int>(out.size()) < k - 1) return;
        CliqueScratch& w = scratch.local();

        // Dense-subproblem path (counting only): when N+(u) is dense
        // enough, re-represent it as a bitset LocalGraph and run the
        // vertex-growth recursion on the SIMD kernels instead of the CSR
        // sub-degree recursion. The arc bound costs one pass over N+(u).
        if (callback == nullptr) {
          std::int64_t arcs_upper = 0;
          for (const node_t x : out) {
            arcs_upper += std::min<std::int64_t>(
                static_cast<std::int64_t>(dag.out_neighbors(x).size()),
                static_cast<std::int64_t>(out.size()));
          }
          if (use_dense_subproblem(static_cast<int>(out.size()), arcs_upper)) {
            build_local_graph(dag, out, w.lg);
            w.ctx.lg = &w.lg;
            w.ctx.ctr = &w.ctr;
            ++w.ctr.dense_subproblems;
            add_count(w.count, search_cliques_vertex_all(w.ctx, k - 1), w.ctr);
            return;
          }
        }

        // CSR path: the task's own G[N+(u)], labels and sub-degrees, all
        // re-initialised here, so an unwinding callback leaves nothing stale.
        SubDagScratch& s = w.sub;
        const int d = static_cast<int>(out.size());
        build_sub_dag(dag, out, s);
        s.label.assign(out.size(), static_cast<std::uint8_t>(k - 1));
        const std::size_t degree_size = static_cast<std::size_t>(k) * out.size();
        if (s.degree.size() < degree_size) s.degree.resize(degree_size);
        s.all.resize(out.size());
        std::iota(s.all.begin(), s.all.end(), 0);
        if (callback != nullptr) {
          w.member_orig.resize(out.size());
          for (std::size_t i = 0; i < out.size(); ++i) w.member_orig[i] = dag.original_id(out[i]);
          w.ctx.clique_stack.clear();
          w.ctx.clique_stack.push_back(dag.original_id(static_cast<node_t>(u)));
        }
        const SubDag g{d, s.offsets.data(), s.adj.data(), s.label.data(), s.degree.data(), callback,
                       w.member_orig.data()};
        int* top_deg = g.degree_at(k - 1);
        for (int v = 0; v < d; ++v) top_deg[v] = s.offsets[v + 1] - s.offsets[v];
        add_count(w.count, kclist_rec(g, w, s.all.data(), d, s.offsets[out.size()], k - 1),
                  w.ctr);
      },
      1);

  scratch.merge_into(result);
  result.stats.search_seconds = search_timer.seconds();
  return result;
}

}  // namespace c3
