// Seeded inputs of the benchmark: the Figure 7-9 stand-in edge lists
// (serve.cpp generates the serve_mix request stream).
//
// Everything here is the benchmark's own code — the library under test
// receives only the finished edge lists and request lines, so a change to
// the library's generators can never move the benchmark's inputs.
//
// The seed picks *which* vertices and pairs are involved, never *how much*
// structure there is: community and team sizes are stratified quantiles of
// a fixed distribution. Two seeds therefore give graphs of near-identical
// cost, so a run-to-run spread measures the program, not the draw.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace perfbench {

using c3::Edge;
using c3::EdgeList;
using c3::node_t;

/// splitmix64: small, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// An independent stream for sub-task `tag`.
  [[nodiscard]] Rng fork(std::uint64_t tag) const { return Rng(state_ ^ (tag * 0xD1B54A32D192ED03ULL)); }

 private:
  std::uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// `count` stratified draws of `lo + (hi - lo) * u^power`, u the midpoints
/// of `count` equal strata, in seeded order: the multiset of sizes is fixed,
/// only their order depends on the seed.
inline std::vector<node_t> stratified_sizes(std::size_t count, double lo, double hi, double power,
                                            Rng& rng) {
  std::vector<node_t> sizes(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(count);
    sizes[i] = static_cast<node_t>(lo + (hi - lo) * std::pow(u, power));
  }
  shuffle(sizes, rng);
  return sizes;
}

inline void add_clique(EdgeList& edges, const std::vector<node_t>& members) {
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      if (members[i] != members[j]) edges.push_back(Edge{members[i], members[j]});
    }
  }
}

/// `size` distinct vertices of [0, n).
inline std::vector<node_t> distinct_sample(node_t n, node_t size, Rng& rng) {
  std::vector<node_t> pool(n);
  for (node_t v = 0; v < n; ++v) pool[v] = v;
  for (node_t i = 0; i < size; ++i) std::swap(pool[i], pool[i + rng.below(n - i)]);
  pool.resize(size);
  return pool;
}

/// A generated input graph: the edge list handed to build_graph.
struct EdgeInput {
  std::string name;
  node_t num_nodes = 0;
  EdgeList edges;
};

/// Chung-Lu skeleton (Zipf weights) plus triadic-closure edges: the
/// heavy-tailed, triangle-rich backbone of a social network.
inline EdgeList social_edges(node_t n, std::size_t m, double closure, Rng rng) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (node_t v = 0; v < n; ++v) cdf[v] = total += std::pow(v + 1.0, -0.55);
  const auto skeleton = static_cast<std::size_t>(static_cast<double>(m) * (1.0 - closure));
  EdgeList edges;
  edges.reserve(m);
  std::vector<std::vector<node_t>> adj(n);
  while (edges.size() < skeleton) {
    const auto a = static_cast<node_t>(std::lower_bound(cdf.begin(), cdf.end(), rng.unit() * total) - cdf.begin());
    const auto b = static_cast<node_t>(std::lower_bound(cdf.begin(), cdf.end(), rng.unit() * total) - cdf.begin());
    if (a == b || a >= n || b >= n) continue;
    edges.push_back(Edge{a, b});
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  while (edges.size() < m) {
    const auto& nbrs = adj[rng.below(n)];
    if (nbrs.size() < 2) continue;
    const node_t a = nbrs[rng.below(nbrs.size())];
    const node_t b = nbrs[rng.below(nbrs.size())];
    if (a != b) edges.push_back(Edge{a, b});
  }
  return edges;
}

/// Overlays `count` cliques with stratified sizes in [lo, hi] (biased toward
/// small by `power`) over random distinct members.
inline void overlay_cliques(EdgeList& edges, node_t n, std::size_t count, node_t lo, node_t hi,
                            double power, Rng rng) {
  for (const node_t size : stratified_sizes(count, lo, hi + 0.999, power, rng)) {
    add_clique(edges, distinct_sample(n, size, rng));
  }
}

/// Ca-DBLP-2012 stand-in: a union of author-team cliques, prolific authors
/// recurring (Table 2: E/V 3.3, T/V 7).
inline EdgeInput dblp_like(double scale, Rng rng) {
  const auto authors = static_cast<node_t>(26'000 * scale);
  const auto papers = static_cast<std::size_t>(14'000 * scale);
  EdgeList edges;
  std::vector<node_t> log;
  for (const node_t team : stratified_sizes(papers, 2.0, 20.999, 4.0, rng)) {
    std::vector<node_t> members(team);
    for (node_t& a : members) {
      a = !log.empty() && rng.unit() < 0.35 ? log[rng.below(log.size())]
                                            : static_cast<node_t>(rng.below(authors));
      log.push_back(a);
    }
    add_clique(edges, members);
  }
  return {"dblp", authors, std::move(edges)};
}

/// Chebyshev4 stand-in: a banded matrix graph plus overlapping dense
/// windows, each missing exactly a tenth of its pairs (Table 2: T/V 424).
inline EdgeInput chebyshev_like(double scale, Rng rng) {
  const auto n = static_cast<node_t>(7'000 * scale);
  constexpr node_t band = 7, window = 22, stride = 9;
  EdgeList edges;
  for (node_t u = 0; u < n; ++u) {
    for (node_t v = u + 1; v < std::min<node_t>(n, u + band + 1); ++v) edges.push_back(Edge{u, v});
  }
  std::vector<Edge> pairs;
  for (node_t start = 0; start + window <= n; start += stride) {
    pairs.clear();
    for (node_t i = 0; i < window; ++i) {
      for (node_t j = i + 1; j < window; ++j) pairs.push_back(Edge{start + i, start + j});
    }
    shuffle(pairs, rng);
    edges.insert(edges.end(), pairs.begin() + static_cast<std::ptrdiff_t>(pairs.size() / 10), pairs.end());
  }
  return {"chebyshev4", n, std::move(edges)};
}

/// Jester2 stand-in: the co-rating projection of a user x item bipartite
/// graph over 150 items with fixed popularities (stratified), each item's
/// raters joined along a 16-wide window.
inline EdgeInput jester_like(double scale, Rng rng) {
  const auto users = static_cast<node_t>(2'500 * scale);
  constexpr node_t items = 150, ratings = 6, window = 16;
  const std::size_t slots = static_cast<std::size_t>(users) * ratings;
  std::vector<node_t> item_of(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(slots);
    item_of[i] = std::min<node_t>(static_cast<node_t>(items * u * u), items - 1);
  }
  shuffle(item_of, rng);
  std::vector<std::vector<node_t>> raters(items);
  for (std::size_t i = 0; i < slots; ++i) raters[item_of[i]].push_back(static_cast<node_t>(i / ratings));
  EdgeList edges;
  for (const auto& members : raters) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < std::min(members.size(), i + window); ++j) {
        if (members[i] != members[j]) edges.push_back(Edge{members[i], members[j]});
      }
    }
  }
  return {"jester2", users, std::move(edges)};
}

/// Orkut stand-in: the social backbone plus power-law-sized community
/// cliques of 5..21 vertices (Table 2: T/E 5.4).
inline EdgeInput orkut_like(double scale, Rng rng) {
  const auto n = static_cast<node_t>(14'000 * scale);
  EdgeList edges = social_edges(n, static_cast<std::size_t>(220'000 * scale), 0.5, rng.fork(1));
  overlay_cliques(edges, n, static_cast<std::size_t>(1'800 * scale), 5, 21, 3.0, rng.fork(2));
  return {"orkut", n, std::move(edges)};
}

}  // namespace perfbench
