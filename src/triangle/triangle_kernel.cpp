#include "triangle/triangle_kernel.hpp"

#include "parallel/scan.hpp"

namespace c3 {
namespace {

/// Runs f(e, x_is_u, neighbors(y), edge_ids(x), edge_ids(y), mark) for
/// every edge e = {x, y} owned by x, the endpoint with the larger (degree,
/// id), with x's neighbourhood marked. x_is_u says whether x is the smaller
/// id (endpoints()[e].u).
template <typename F>
void for_each_owned_edge(const Graph& g, OwnerMarks& marks, F&& f) {
  marks.for_each_owner([&](node_t x) { return g.neighbors(x); },
                       [&](node_t x, const std::uint32_t* mark) {
                         const auto nx = g.neighbors(x);
                         const auto ids = g.edge_ids(x);
                         const node_t dx = g.degree(x);
                         for (std::size_t i = 0; i < nx.size(); ++i) {
                           const node_t y = nx[i];
                           const node_t dy = g.degree(y);
                           if (dy > dx || (dy == dx && y > x)) continue;  // y owns it
                           f(ids[i], x < y, g.neighbors(y), ids, g.edge_ids(y), mark);
                         }
                       });
}

std::vector<node_t> count_pass(const Graph& g, OwnerMarks& marks) {
  std::vector<node_t> counts(g.num_edges(), 0);
  for_each_owned_edge(g, marks,
                      [&](edge_t e, bool, std::span<const node_t> ny, std::span<const edge_t>,
                          std::span<const edge_t>, const std::uint32_t* mark) {
                        node_t c = 0;
                        for (const node_t w : ny) c += mark[w] != 0;
                        counts[e] = c;
                      });
  return counts;
}

}  // namespace

std::vector<node_t> edge_triangle_counts(const Graph& g) {
  OwnerMarks marks(g.num_nodes());
  return count_pass(g, marks);
}

template <typename Id>
EdgeTriangles<Id> list_edge_triangles(const Graph& g) {
  const edge_t m = g.num_edges();
  OwnerMarks marks(g.num_nodes());
  EdgeTriangles<Id> out;
  out.counts = count_pass(g, marks);
  out.offsets.resize(m + 1);
  parallel_for(0, m, [&](std::size_t e) { out.offsets[e] = out.counts[e]; });
  out.offsets[m] = exclusive_scan<edge_t>(std::span<const edge_t>(out.offsets.data(), m),
                                          std::span<edge_t>(out.offsets.data(), m));
  out.partner_u.resize(out.offsets[m]);
  out.partner_v.resize(out.offsets[m]);

  // Fill pass: scanning neighbors(y) ascending lists each edge's triangles
  // in ascending w; only the owner's task writes the edge's range. The
  // writes are unconditional and only the cursor advance depends on the
  // mark (no mispredicted branch per probe): an unmarked w reads x's first
  // edge id instead of its own, and the next write overwrites it. Stopping
  // at the known count keeps every write inside the range.
  for_each_owned_edge(g, marks, [&](edge_t e, bool x_is_u, std::span<const node_t> ny,
                                    std::span<const edge_t> ids_x, std::span<const edge_t> ids_y,
                                    const std::uint32_t* mark) {
    Id* in_x = (x_is_u ? out.partner_u : out.partner_v).data() + out.offsets[e];
    Id* in_y = (x_is_u ? out.partner_v : out.partner_u).data() + out.offsets[e];
    const node_t count = out.counts[e];
    for (node_t j = 0, found = 0; found < count; ++j) {
      const std::uint32_t s = mark[ny[j]];
      in_x[found] = static_cast<Id>(ids_x[s - (s != 0)]);  // edge {x, w}
      in_y[found] = static_cast<Id>(ids_y[j]);             // edge {y, w}
      found += s != 0;
    }
  });
  return out;
}

template EdgeTriangles<std::uint32_t> list_edge_triangles(const Graph& g);
template EdgeTriangles<edge_t> list_edge_triangles(const Graph& g);

}  // namespace c3
