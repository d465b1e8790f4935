#include "order/community_degeneracy.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "parallel/pack.hpp"
#include "parallel/parallel.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "triangle/triangle_kernel.hpp"

namespace c3 {
namespace {

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

}  // namespace

// Algorithm 4 of the paper: per round, select all edges supporting at most
// (3 + eps) * T / m triangles (T, m of the *remaining* graph), append them to
// the order (tie-broken by edge id), remove them, and update the partner
// edges' counts. Observation 6 bounds the rounds by O(log_{1+eps} m);
// Lemma 4.4 bounds every candidate set by (3 + eps) * sigma.
EdgeOrderResult approx_community_degeneracy_order(const Graph& g, double eps) {
  if (eps <= 0.0)
    throw std::invalid_argument("approx_community_degeneracy_order: eps must be positive");
  const edge_t m = g.num_edges();
  const auto endpoints = g.endpoints();
  EdgeOrderResult result;
  result.order.reserve(m);
  result.pos.assign(m, static_cast<edge_t>(-1));
  result.candidate_offsets.assign(m + 1, 0);
  if (m == 0) {
    build_later_arcs(g, result);
    return result;
  }

  // Step 1-2 of Algorithm 4: per-edge triangle counts. Plain storage: only
  // the round update below writes concurrently, through atomic_ref.
  std::vector<node_t> cnt = edge_triangle_counts(g);
  count_t triangles_remaining =
      parallel_sum<count_t>(0, m, [&](std::size_t e) { return cnt[e]; }) / 3;

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

    std::vector<edge_t> peeled =
        pack_if<edge_t>(alive, [&](std::size_t i) { return cnt[alive[i]] <= threshold; });
    std::vector<edge_t> survivors =
        pack_if<edge_t>(alive, [&](std::size_t i) { return cnt[alive[i]] > threshold; });

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
                             std::atomic_ref(cnt[f]).fetch_sub(1, std::memory_order_relaxed);
                           if (hpos == static_cast<edge_t>(-1))
                             std::atomic_ref(cnt[h]).fetch_sub(1, std::memory_order_relaxed);
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
  build_later_arcs(g, result);
  return result;
}

}  // namespace c3
