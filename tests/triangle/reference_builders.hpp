// Test-only reference builders: the edge-community and community-degeneracy
// builders as they stood before the owner-marks triangle kernel (two
// neighbourhood merges per edge, atomic scatters, per-community sorts),
// kept verbatim apart from the names and the later arcs each order returns
// (with_later_arcs), so the tests can assert that the kernel-based builders
// produce byte-identical arrays on graphs().
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/digraph.hpp"
#include "graph/gen/generators.hpp"
#include "graph/graph.hpp"
#include "order/community_degeneracy.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "triangle/communities.hpp"
#include "triangle/triangle_count.hpp"

namespace c3::reference {

/// The edge order's later arcs by their definition, with no shared code:
/// each vertex collects the edges whose other endpoint has the larger
/// (degree, id), tagged with their positions, and sorts them by descending
/// position. 32-bit positions: the graphs here have far fewer than 2^32
/// edges.
inline EdgeOrderResult with_later_arcs(const Graph& g, EdgeOrderResult result) {
  using Arc = LaterArc<std::uint32_t>;
  const node_t n = g.num_nodes();
  std::vector<std::vector<Arc>> lists(n);
  for (node_t x = 0; x < n; ++x) {
    const auto nx = g.neighbors(x);
    const auto ids = g.edge_ids(x);
    for (std::size_t i = 0; i < nx.size(); ++i) {
      const node_t y = nx[i];
      const bool x_holds = g.degree(x) < g.degree(y) || (g.degree(x) == g.degree(y) && x < y);
      if (x_holds) lists[x].push_back(Arc{static_cast<std::uint32_t>(result.pos[ids[i]]), y});
    }
    std::sort(lists[x].begin(), lists[x].end(),
              [](const Arc& a, const Arc& b) { return a.position > b.position; });
  }
  result.later_offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  result.later_arcs.clear();
  for (node_t x = 0; x < n; ++x) {
    result.later_arcs.insert(result.later_arcs.end(), lists[x].begin(), lists[x].end());
    result.later_offsets[x + 1] = result.later_arcs.size();
  }
  return result;
}

inline EdgeCommunities build_communities(const Digraph& dag) {
  const edge_t m = dag.num_arcs();
  struct {
    std::vector<edge_t> offsets_;
    std::vector<node_t> members_;
  } out;
  out.offsets_.assign(m + 1, 0);
  if (m == 0) return EdgeCommunities::from_parts(std::move(out.offsets_), {});

  // Pass 1: size each community. Triangle (a, b, c) contributes member b to
  // the supporting arc (a, c).
  std::vector<std::atomic<node_t>> size(m);
  parallel_for(0, m, [&](std::size_t e) { size[e].store(0, std::memory_order_relaxed); });
  for_each_triangle(dag, [&](node_t a, node_t, node_t c) {
    const edge_t support = dag.arc_id(a, c);
    size[support].fetch_add(1, std::memory_order_relaxed);
  });

  {
    std::vector<edge_t> sz(m);
    parallel_for(0, m, [&](std::size_t e) { sz[e] = size[e].load(std::memory_order_relaxed); });
    out.offsets_[m] = exclusive_scan<edge_t>(sz, std::span<edge_t>(out.offsets_.data(), m));
  }
  out.members_.resize(out.offsets_[m]);

  // Pass 2: scatter members, then sort each community ascending ("Build the
  // communities and sort them", Algorithm 1 line 1).
  std::vector<std::atomic<edge_t>> cursor(m);
  parallel_for(0, m, [&](std::size_t e) {
    cursor[e].store(out.offsets_[e], std::memory_order_relaxed);
  });
  for_each_triangle(dag, [&](node_t a, node_t b, node_t c) {
    const edge_t support = dag.arc_id(a, c);
    out.members_[cursor[support].fetch_add(1, std::memory_order_relaxed)] = b;
  });
  parallel_for_dynamic(0, m, [&](std::size_t e) {
    std::sort(out.members_.begin() + static_cast<std::ptrdiff_t>(out.offsets_[e]),
              out.members_.begin() + static_cast<std::ptrdiff_t>(out.offsets_[e + 1]));
  });
  return EdgeCommunities::from_parts(std::move(out.offsets_), std::move(out.members_));
}

/// Initial per-edge triangle counts |C_G(e)| by merging the (sorted)
/// neighborhoods of the endpoints. O(sum over edges of d(u)+d(v)).
inline std::vector<node_t> merged_edge_triangle_counts(const Graph& g) {
  const auto endpoints = g.endpoints();
  std::vector<node_t> count(endpoints.size(), 0);
  parallel_for(
      0, endpoints.size(),
      [&](std::size_t e) {
        const auto nu = g.neighbors(endpoints[e].u);
        const auto nv = g.neighbors(endpoints[e].v);
        std::size_t i = 0, j = 0;
        node_t c = 0;
        while (i < nu.size() && j < nv.size()) {
          if (nu[i] < nv[j]) {
            ++i;
          } else if (nu[i] > nv[j]) {
            ++j;
          } else {
            ++c;
            ++i;
            ++j;
          }
        }
        count[e] = c;
      },
      64);
  return count;
}

// Edge analogue of the Batagelj-Zaversnik sweep: edges sit in bins by their
// current triangle count; processing an edge enumerates its remaining
// triangles and decrements the two partner edges (with the clamping guard
// cnt[f] > cnt[e], which keeps processing counts non-decreasing — so the
// maximum processing count is exactly the community degeneracy, the same
// argument as for k-truss decomposition).
inline EdgeOrderResult community_degeneracy_order(const Graph& g) {
  const edge_t m = g.num_edges();
  const auto endpoints = g.endpoints();
  EdgeOrderResult result;
  result.order.reserve(m);
  result.pos.assign(m, static_cast<edge_t>(-1));
  result.candidate_offsets.assign(m + 1, 0);
  if (m == 0) {
    result.rounds = 0;
    return with_later_arcs(g, std::move(result));
  }
  result.rounds = static_cast<node_t>(m);  // one edge per "round": linear depth

  std::vector<node_t> cnt = merged_edge_triangle_counts(g);
  const node_t max_cnt = *std::max_element(cnt.begin(), cnt.end());

  // Counting sort of edges by triangle count.
  std::vector<edge_t> bin(static_cast<std::size_t>(max_cnt) + 2, 0);
  for (edge_t e = 0; e < m; ++e) bin[cnt[e] + 1]++;
  for (std::size_t d = 0; d + 1 < bin.size(); ++d) bin[d + 1] += bin[d];
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
  // Candidate sets are appended in sweep order, then re-indexed by edge id.
  std::vector<std::pair<edge_t, node_t>> flat_candidates;  // (edge, member)
  node_t sigma = 0;

  for (edge_t i = 0; i < m; ++i) {
    const edge_t e = edges_sorted[i];
    result.order.push_back(e);
    result.pos[e] = i;
    processed[e] = true;
    sigma = std::max(sigma, cnt[e]);

    // Enumerate remaining triangles of e: common neighbors w with both
    // partner edges unprocessed.
    const node_t u = endpoints[e].u;
    const node_t v = endpoints[e].v;
    const auto nu = g.neighbors(u);
    const auto nv = g.neighbors(v);
    const auto idu = g.edge_ids(u);
    const auto idv = g.edge_ids(v);
    std::size_t a = 0, b = 0;
    while (a < nu.size() && b < nv.size()) {
      if (nu[a] < nv[b]) {
        ++a;
      } else if (nu[a] > nv[b]) {
        ++b;
      } else {
        const edge_t f = idu[a];  // edge {u, w}
        const edge_t h = idv[b];  // edge {v, w}
        if (!processed[f] && !processed[h]) {
          flat_candidates.emplace_back(e, nu[a]);
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
        ++a;
        ++b;
      }
    }
  }
  result.sigma = sigma;

  // Re-index the flat (edge, member) pairs into a CSR keyed by edge id.
  for (const auto& [e, w] : flat_candidates) result.candidate_offsets[e + 1]++;
  for (edge_t e = 0; e < m; ++e) result.candidate_offsets[e + 1] += result.candidate_offsets[e];
  result.candidate_members.resize(flat_candidates.size());
  {
    std::vector<edge_t> cursor(result.candidate_offsets.begin(),
                               result.candidate_offsets.end() - 1);
    for (const auto& [e, w] : flat_candidates) result.candidate_members[cursor[e]++] = w;
  }
  // Members arrive in merge order (ascending w) per edge already, but the
  // sweep interleaves edges; the scatter above preserves per-edge order, and
  // per-edge enumeration is ascending — so each set is already sorted.
  return with_later_arcs(g, std::move(result));
}

/// Per-edge merge over the endpoints' neighborhoods, invoking
/// f(w, partner_edge_uw, partner_edge_vw) for each common neighbor w.
template <typename F>
void for_each_wedge(const Graph& g, node_t u, node_t v, F&& f) {
  const auto nu = g.neighbors(u);
  const auto nv = g.neighbors(v);
  const auto idu = g.edge_ids(u);
  const auto idv = g.edge_ids(v);
  std::size_t a = 0, b = 0;
  while (a < nu.size() && b < nv.size()) {
    if (nu[a] < nv[b]) {
      ++a;
    } else if (nu[a] > nv[b]) {
      ++b;
    } else {
      f(nu[a], idu[a], idv[b]);
      ++a;
      ++b;
    }
  }
}

// Algorithm 4 of the paper: per round, select all edges supporting at most
// (3 + eps) * T / m triangles (T, m of the *remaining* graph), append them to
// the order (tie-broken by edge id), remove them, and update the partner
// edges' counts. Observation 6 bounds the rounds by O(log_{1+eps} m);
// Lemma 4.4 bounds every candidate set by (3 + eps) * sigma.
inline EdgeOrderResult approx_community_degeneracy_order(const Graph& g, double eps) {
  if (eps <= 0.0)
    throw std::invalid_argument("approx_community_degeneracy_order: eps must be positive");
  const edge_t m = g.num_edges();
  const auto endpoints = g.endpoints();
  EdgeOrderResult result;
  result.order.reserve(m);
  result.pos.assign(m, static_cast<edge_t>(-1));
  result.candidate_offsets.assign(m + 1, 0);
  if (m == 0) return with_later_arcs(g, std::move(result));

  // Step 1-2 of Algorithm 4: per-edge triangle counts.
  std::vector<std::atomic<node_t>> cnt(m);
  parallel_for(
      0, m,
      [&](std::size_t e) {
        node_t c = 0;
        for_each_wedge(g, endpoints[e].u, endpoints[e].v,
                       [&](node_t, edge_t, edge_t) { ++c; });
        cnt[e].store(c, std::memory_order_relaxed);
      },
      64);
  count_t triangles_remaining = parallel_sum<count_t>(0, m, [&](std::size_t e) {
                                  return cnt[e].load(std::memory_order_relaxed);
                                }) /
                                3;

  std::vector<edge_t> alive(m);
  for (edge_t e = 0; e < m; ++e) alive[e] = e;

  // Per-edge candidate sets, filled round by round; flattened at the end.
  std::vector<std::vector<node_t>> candidates(m);

  while (!alive.empty()) {
    ++result.rounds;
    const double avg = 3.0 * static_cast<double>(triangles_remaining) /
                       static_cast<double>(alive.size());
    const auto threshold = static_cast<node_t>((1.0 + eps / 3.0) * avg);
    // (3 + eps) * T / m == (1 + eps/3) * (3T/m); written via the per-edge
    // average 3T/m so the zero-triangle round peels everything at once.

    std::vector<edge_t> peeled = pack_if<edge_t>(alive, [&](std::size_t i) {
      return cnt[alive[i]].load(std::memory_order_relaxed) <= threshold;
    });
    std::vector<edge_t> survivors = pack_if<edge_t>(alive, [&](std::size_t i) {
      return cnt[alive[i]].load(std::memory_order_relaxed) > threshold;
    });

    // Final order positions: earlier rounds first, ties by edge id (peeled
    // is id-sorted because pack preserves the order of `alive`).
    const edge_t base = static_cast<edge_t>(result.order.size());
    for (std::size_t i = 0; i < peeled.size(); ++i) {
      result.pos[peeled[i]] = base + i;
      result.order.push_back(peeled[i]);
    }

    // For each peeled edge e, enumerate the triangles that are still alive
    // at round start and in which e is the lowest-positioned edge. That
    // triangle is recorded in V'(e), and each *surviving* partner edge
    // loses one triangle.
    std::atomic<count_t> destroyed{0};
    parallel_for(
        0, peeled.size(),
        [&](std::size_t i) {
          const edge_t e = peeled[i];
          const edge_t epos = result.pos[e];
          count_t local_destroyed = 0;
          for_each_wedge(g, endpoints[e].u, endpoints[e].v,
                         [&](node_t w, edge_t f, edge_t h) {
                           const edge_t fpos = result.pos[f];
                           const edge_t hpos = result.pos[h];
                           // Partner removed in an earlier round: triangle
                           // already gone before this round.
                           if (fpos < base || hpos < base) return;
                           // e must be the first of the triangle's edges in
                           // the final order to own it.
                           if (fpos != static_cast<edge_t>(-1) && fpos < epos) return;
                           if (hpos != static_cast<edge_t>(-1) && hpos < epos) return;
                           candidates[e].push_back(w);
                           ++local_destroyed;
                           if (fpos == static_cast<edge_t>(-1))
                             cnt[f].fetch_sub(1, std::memory_order_relaxed);
                           if (hpos == static_cast<edge_t>(-1))
                             cnt[h].fetch_sub(1, std::memory_order_relaxed);
                         });
          destroyed.fetch_add(local_destroyed, std::memory_order_relaxed);
        },
        4);
    triangles_remaining -= destroyed.load(std::memory_order_relaxed);
    alive = std::move(survivors);
  }

  // Flatten per-edge candidate vectors into the CSR and record the bound.
  node_t max_candidates = 0;
  for (edge_t e = 0; e < m; ++e) {
    result.candidate_offsets[e + 1] =
        result.candidate_offsets[e] + candidates[e].size();
    max_candidates = std::max(max_candidates, static_cast<node_t>(candidates[e].size()));
  }
  result.candidate_members.resize(result.candidate_offsets[m]);
  parallel_for(0, m, [&](std::size_t e) {
    std::copy(candidates[e].begin(), candidates[e].end(),
              result.candidate_members.begin() +
                  static_cast<std::ptrdiff_t>(result.candidate_offsets[e]));
  });
  result.sigma = max_candidates;
  return with_later_arcs(g, std::move(result));
}

/// The graphs the byte-identity tests sweep: dense, triangle-free, the
/// paper's sigma-vs-degeneracy example, a hub with an overlaid clique (hub
/// ownership and degree ties broken by id), the two stand-in families, and
/// the empty and edgeless cases.
inline std::vector<Graph> graphs() {
  EdgeList hub;
  for (node_t leaf = 1; leaf <= 40; ++leaf) hub.push_back({0, leaf});
  for (node_t a = 1; a <= 9; ++a)
    for (node_t b = a + 1; b <= 9; ++b) hub.push_back({a, b});
  std::vector<Graph> out;
  out.push_back(complete_graph(12));
  out.push_back(grid_graph(6, 7));
  out.push_back(bipartite_plus_line(16));
  out.push_back(build_graph(hub));
  out.push_back(social_like(600, 4000, 0.4, 3));
  out.push_back(bio_like(400, 1500, 12, 18, 0.5, 4));
  out.push_back(Graph{});
  out.push_back(build_graph(EdgeList{}, 5));
  return out;
}

}  // namespace c3::reference
