#include "order/community_degeneracy.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "triangle/triangle_kernel.hpp"

namespace c3 {

// Edge analogue of the Batagelj-Zaversnik sweep: edges sit in bins by their
// current triangle count; processing an edge enumerates its remaining
// triangles and decrements the two partner edges (with the clamping guard
// cnt[f] > cnt[e], which keeps processing counts non-decreasing — so the
// maximum processing count is exactly the community degeneracy, the same
// argument as for k-truss decomposition).
template <typename Id>
EdgeOrderResult community_degeneracy_order_with_ids(const Graph& g) {
  const edge_t m = g.num_edges();
  const auto endpoints = g.endpoints();
  EdgeOrderResult result;
  if (m == 0) {
    result.candidate_offsets.assign(1, 0);
    build_later_arcs(g, result);
    return result;
  }
  result.rounds = static_cast<node_t>(m);  // one edge per "round": linear depth

  // Every edge's triangles, listed once up front as partner edge ids, so
  // processing an edge costs O(its triangles) in the sequential sweep.
  EdgeTriangles<Id> tri = list_edge_triangles<Id>(g);
  std::vector<node_t>& cnt = tri.counts;
  const node_t max_cnt = *std::max_element(cnt.begin(), cnt.end());

  // Counting sort of edges by triangle count.
  std::vector<edge_t> bin(static_cast<std::size_t>(max_cnt) + 2, 0);
  for (edge_t e = 0; e < m; ++e) bin[cnt[e] + 1]++;
  for (std::size_t d = 0; d + 1 < bin.size(); ++d) bin[d + 1] += bin[d];
  // Once the sweep passes position i, edges_sorted[i] and epos of that edge
  // never move again, so at the end they are the order and its inverse, and
  // an edge is processed exactly when its position is at most i.
  std::vector<edge_t> edges_sorted(m), epos(m);
  {
    std::vector<edge_t> cursor(bin.begin(), bin.end() - 1);
    for (edge_t e = 0; e < m; ++e) {
      const edge_t p = cursor[cnt[e]]++;
      edges_sorted[p] = e;
      epos[e] = p;
    }
  }

  // Moves `partner` one bin down, the clamping guard allowing. The swap is
  // unconditional: a partner already at its bin's front swaps with itself.
  const auto decrement = [&](edge_t partner, node_t floor) {
    const node_t dp = cnt[partner];
    if (dp <= floor) return;
    const edge_t pp = epos[partner];
    const edge_t pt = bin[dp]++;
    const edge_t t = edges_sorted[pt];
    edges_sorted[pp] = t;
    edges_sorted[pt] = partner;
    epos[t] = pp;
    epos[partner] = pt;
    --cnt[partner];
  };

  node_t sigma = 0;
  for (edge_t i = 0; i < m; ++i) {
    const edge_t e = edges_sorted[i];
    const node_t ce = cnt[e];
    sigma = std::max(sigma, ce);

    // Walk e's remaining triangles (ascending w): those with both partner
    // edges unprocessed. A branch-free first pass moves them to the front
    // of e's own two ranges, which it has already read; the decrements
    // follow in a second pass. That split is sound because a decrement only
    // moves unprocessed edges among positions after i, so no partner's
    // state changes during e's walk. The kept {u, w} ids stay for the
    // gather, which recovers w from them.
    Id* in_u = tri.partner_u.data() + tri.offsets[e];
    Id* in_v = tri.partner_v.data() + tri.offsets[e];
    const edge_t triangles = tri.offsets[e + 1] - tri.offsets[e];
    node_t kept = 0;
    for (edge_t k = 0; k < triangles; ++k) {
      const Id f = in_u[k];  // edge {u, w}
      const Id h = in_v[k];  // edge {v, w}
      in_u[kept] = f;
      in_v[kept] = h;
      kept += (epos[f] > i) & (epos[h] > i);
    }
    for (node_t k = 0; k < kept; ++k) {
      decrement(in_u[k], ce);
      decrement(in_v[k], ce);
    }
    cnt[e] = kept;  // never read again as a count: now |V'(e)|
  }
  result.sigma = sigma;
  result.order = std::move(edges_sorted);
  result.pos = std::move(epos);

  // Gather the accepted members into the CSR keyed by edge id (each set is
  // ascending because each walk is): member w is the endpoint of the kept
  // edge {u, w} other than u. partner_v is released first, so the members
  // array can reuse its memory. The triangle offsets become the candidate
  // offsets in place: offsets[e] is read before it is overwritten, and
  // offsets[e + 1] only on the next step.
  std::vector<Id>().swap(tri.partner_v);
  std::vector<edge_t>& offsets = tri.offsets;
  result.candidate_members.resize(offsets[m] / 3);  // each triangle once
  node_t* members = result.candidate_members.data();
  edge_t next = 0;
  for (edge_t e = 0; e < m; ++e) {
    const Id* kept = tri.partner_u.data() + offsets[e];
    const node_t u = endpoints[e].u;
    offsets[e] = next;
    for (node_t k = 0; k < cnt[e]; ++k) {
      const Edge f = endpoints[kept[k]];
      members[next + k] = f.u ^ f.v ^ u;
    }
    next += cnt[e];
  }
  offsets[m] = next;
  result.candidate_offsets = std::move(offsets);
  tri = {};
  build_later_arcs(g, result);
  return result;
}

template EdgeOrderResult community_degeneracy_order_with_ids<std::uint32_t>(const Graph& g);
template EdgeOrderResult community_degeneracy_order_with_ids<edge_t>(const Graph& g);

EdgeOrderResult community_degeneracy_order(const Graph& g) {
  return g.num_edges() < (edge_t{1} << 32) ? community_degeneracy_order_with_ids<std::uint32_t>(g)
                                           : community_degeneracy_order_with_ids<edge_t>(g);
}

template <typename Pos>
void build_later_arcs_with(const Graph& g, EdgeOrderResult& result) {
  const node_t n = g.num_nodes();
  const edge_t m = g.num_edges();
  const auto endpoints = g.endpoints();
  const std::span<const edge_t> order = result.order.span();  // may be a snapshot view
  // An edge is stored at its endpoint with the smaller (degree, id).
  const auto holder = [&](const Edge& ends) {
    const node_t du = g.degree(ends.u);
    const node_t dv = g.degree(ends.v);
    return du < dv || (du == dv && ends.u < ends.v) ? ends.u : ends.v;
  };
  std::vector<edge_t>& offsets = result.later_offsets;
  offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (edge_t e = 0; e < m; ++e) ++offsets[holder(endpoints[e]) + 1];
  for (node_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  // Walking the order backwards appends each list in descending position.
  std::vector<edge_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<LaterArc<Pos>> arcs(m);
  for (edge_t i = m; i-- > 0;) {
    const Edge ends = endpoints[order[i]];
    const node_t x = holder(ends);
    arcs[cursor[x]++] = LaterArc<Pos>{static_cast<Pos>(i), ends.u ^ ends.v ^ x};
  }
  result.later_arcs.clear();
  result.later_arcs_wide.clear();
  if constexpr (std::is_same_v<Pos, std::uint32_t>) {
    result.later_arcs = std::move(arcs);
  } else {
    result.later_arcs_wide = std::move(arcs);
  }
}

template void build_later_arcs_with<std::uint32_t>(const Graph& g, EdgeOrderResult& result);
template void build_later_arcs_with<edge_t>(const Graph& g, EdgeOrderResult& result);

void build_later_arcs(const Graph& g, EdgeOrderResult& result) {
  if (g.num_edges() < (edge_t{1} << 32)) {
    build_later_arcs_with<std::uint32_t>(g, result);
  } else {
    build_later_arcs_with<edge_t>(g, result);
  }
}

node_t community_degeneracy(const Graph& g) { return community_degeneracy_order(g).sigma; }

}  // namespace c3
