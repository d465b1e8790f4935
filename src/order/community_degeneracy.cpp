#include "order/community_degeneracy.hpp"

#include <algorithm>
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
EdgeOrderResult community_degeneracy_order(const Graph& g) {
  const edge_t m = g.num_edges();
  const auto endpoints = g.endpoints();
  EdgeOrderResult result;
  if (m == 0) {
    result.candidate_offsets.assign(1, 0);
    return result;
  }
  result.rounds = static_cast<node_t>(m);  // one edge per "round": linear depth

  // Every edge's triangles, listed once up front, so processing an edge
  // costs O(its triangles) in the sequential sweep.
  EdgeTriangles tri = list_edge_triangles(g);
  std::vector<node_t>& cnt = tri.counts;
  const node_t max_cnt = *std::max_element(cnt.begin(), cnt.end());

  // Counting sort of edges by triangle count.
  std::vector<edge_t> bin(static_cast<std::size_t>(max_cnt) + 2, 0);
  for (edge_t e = 0; e < m; ++e) bin[cnt[e] + 1]++;
  for (std::size_t d = 0; d + 1 < bin.size(); ++d) bin[d + 1] += bin[d];
  // Once the sweep passes position i, edges_sorted[i] and epos of that edge
  // never move again, so at the end they are the order and its inverse.
  std::vector<edge_t> edges_sorted(m), epos(m);
  {
    std::vector<edge_t> cursor(bin.begin(), bin.end() - 1);
    for (edge_t e = 0; e < m; ++e) {
      const edge_t p = cursor[cnt[e]]++;
      edges_sorted[p] = e;
      epos[e] = p;
    }
  }

  std::vector<bool> processed(m, false);
  node_t sigma = 0;

  for (edge_t i = 0; i < m; ++i) {
    const edge_t e = edges_sorted[i];
    processed[e] = true;
    sigma = std::max(sigma, cnt[e]);

    // Walk e's remaining triangles (ascending w): those with both partner
    // edges unprocessed. Accepted members overwrite the front of e's own
    // slot_u range, which the walk has already read.
    const auto nu = g.neighbors(endpoints[e].u);
    const auto idu = g.edge_ids(endpoints[e].u);
    const auto idv = g.edge_ids(endpoints[e].v);
    std::uint32_t* in_u = tri.slot_u.data() + tri.offsets[e];
    const std::uint32_t* in_v = tri.slot_v.data() + tri.offsets[e];
    const edge_t triangles = tri.offsets[e + 1] - tri.offsets[e];
    node_t kept = 0;
    for (edge_t k = 0; k < triangles; ++k) {
      const edge_t f = idu[in_u[k]];  // edge {u, w}
      const edge_t h = idv[in_v[k]];  // edge {v, w}
      if (processed[f] || processed[h]) continue;
      in_u[kept++] = nu[in_u[k]];
      // Decrement with the clamping guard (see header comment).
      for (const edge_t partner : {f, h}) {
        if (cnt[partner] > cnt[e]) {
          const node_t dp = cnt[partner];
          const edge_t pp = epos[partner];
          const edge_t pt = bin[dp];
          const edge_t t = edges_sorted[pt];
          if (partner != t) {
            std::swap(edges_sorted[pp], edges_sorted[pt]);
            epos[partner] = pt;
            epos[t] = pp;
          }
          ++bin[dp];
          --cnt[partner];
        }
      }
    }
    cnt[e] = kept;  // never read again as a count: now |V'(e)|
  }
  result.sigma = sigma;
  result.order = std::move(edges_sorted);
  result.pos = std::move(epos);

  // Gather the accepted members into the CSR keyed by edge id (each set is
  // ascending because each walk is). slot_v is released first, so the
  // members array can reuse its memory. The slot offsets become the
  // candidate offsets in place: offsets[e] is read before it is
  // overwritten, and offsets[e + 1] only on the next step.
  std::vector<std::uint32_t>().swap(tri.slot_v);
  std::vector<edge_t>& offsets = tri.offsets;
  result.candidate_members.resize(offsets[m] / 3);  // each triangle once
  node_t* members = result.candidate_members.data();
  edge_t next = 0;
  for (edge_t e = 0; e < m; ++e) {
    const std::uint32_t* kept = tri.slot_u.data() + offsets[e];
    offsets[e] = next;
    std::copy(kept, kept + cnt[e], members + next);
    next += cnt[e];
  }
  offsets[m] = next;
  result.candidate_offsets = std::move(offsets);
  return result;
}

node_t community_degeneracy(const Graph& g) { return community_degeneracy_order(g).sigma; }

}  // namespace c3
