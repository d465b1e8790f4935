#include "triangle/communities.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "parallel/padded.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "triangle/triangle_kernel.hpp"

namespace c3 {
namespace {

/// Task a's probes: f(s, b) for every b in N+(a) and every c in N+(b) up
/// to the largest vertex of N+(a), where s = mark[c]. s > 0 means c is
/// slot s - 1 of N+(a), so the triangle a < b < c puts member b into
/// community(a -> c); s = 0 is a miss. b runs ascending, so each community
/// receives its members in ascending order.
template <typename F>
void for_each_probe(const Digraph& dag, node_t a, const std::uint32_t* mark, F&& f) {
  const auto na = dag.out_neighbors(a);
  const node_t last = na.back();
  for (const node_t b : na) {
    for (const node_t c : dag.out_neighbors(b)) {
      if (c > last) break;
      f(mark[c], b);
    }
  }
}

}  // namespace

EdgeCommunities EdgeCommunities::build(const Digraph& dag) {
  const edge_t m = dag.num_arcs();
  EdgeCommunities out;
  out.offsets_.assign(m + 1, 0);
  if (m == 0) return out;
  const auto arc_base = dag.raw_out_offsets();
  OwnerMarks marks(dag.num_nodes());

  // Both passes index a per-task array by the mark, slot 0 absorbing the
  // misses, so no probe branches on a hit. Only task a touches a's arcs.
  const auto out_of = [&](node_t a) { return dag.out_neighbors(a); };

  // Size pass into offsets_[e + 1]; the exclusive scan over that shifted
  // window leaves offsets_[e + 1] = start of community e, the fill pass's
  // cursor, which it advances to the end of e = start of e + 1.
  edge_t* shifted = out.offsets_.data() + 1;
  PerWorker<std::vector<edge_t>> counts;
  marks.for_each_owner(out_of, [&](node_t a, const std::uint32_t* mark) {
    std::vector<edge_t>& count = counts.local();
    count.assign(dag.out_degree(a) + 1, 0);
    for_each_probe(dag, a, mark, [&](std::uint32_t s, node_t) { ++count[s]; });
    std::copy(count.begin() + 1, count.end(), shifted + arc_base[a]);
  });
  out.members_.resize(exclusive_scan<edge_t>(std::span<const edge_t>(shifted, m),
                                             std::span<edge_t>(shifted, m)));

  // Fill pass: the members arrive sorted ("Build the communities and sort
  // them", Algorithm 1 line 1), so no sort follows.
  node_t* members = out.members_.data();
  PerWorker<std::vector<node_t*>> cursors;
  marks.for_each_owner(out_of, [&](node_t a, const std::uint32_t* mark) {
    const node_t d = dag.out_degree(a);
    std::vector<node_t*>& at = cursors.local();
    node_t sink = 0;
    at.resize(d + 1);
    at[0] = &sink;
    for (node_t i = 0; i < d; ++i) at[i + 1] = members + shifted[arc_base[a] + i];
    for_each_probe(dag, a, mark, [&](std::uint32_t s, node_t b) {
      *at[s] = b;
      at[s] += s != 0;
    });
    for (node_t i = 0; i < d; ++i) shifted[arc_base[a] + i] = static_cast<edge_t>(at[i + 1] - members);
  });
  return out;
}

EdgeCommunities EdgeCommunities::from_parts(ArrayStore<edge_t> offsets,
                                            ArrayStore<node_t> members) {
  EdgeCommunities out;
  out.offsets_ = std::move(offsets);
  out.members_ = std::move(members);
  return out;
}

node_t EdgeCommunities::max_size() const noexcept {
  const edge_t m = num_edges();
  if (m == 0) return 0;
  return parallel_max(0, m, node_t{0},
                      [&](std::size_t e) { return size(static_cast<edge_t>(e)); });
}

}  // namespace c3
