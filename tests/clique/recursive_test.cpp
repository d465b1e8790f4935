// Direct tests of the Algorithm 2 engine on hand-built local subgraphs.
#include "clique/recursive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "clique/combinatorics.hpp"
#include "util/bitkernels.hpp"

namespace c3 {
namespace {

struct EngineFixture {
  LocalGraph lg;
  SearchContext ctx;
  LocalCounters ctr;

  explicit EngineFixture(int n) {
    lg.reset(n);
    ctx.lg = &lg;
    ctx.ctr = &ctr;
    ctx.prune = true;
  }

  count_t count_all(int c) { return search_cliques_all(ctx, c); }
  count_t count_vertex_all(int c) { return search_cliques_vertex_all(ctx, c); }
};

/// Number of neighbours in a's row.
int row_degree(const LocalGraph& lg, int a) {
  return static_cast<int>(bits::popcount(lg.row(a), static_cast<std::size_t>(lg.words())));
}

/// Restores the active kernel backend on scope exit.
struct BackendGuard {
  bits::KernelBackend saved = bits::active_kernel_backend();
  ~BackendGuard() { bits::set_kernel_backend(saved); }
};

TEST(RecursiveEngine, BaseCaseCountsCandidates) {
  EngineFixture f(5);  // no edges
  EXPECT_EQ(f.count_all(1), 5u);
}

TEST(RecursiveEngine, BaseCaseCountsEdges) {
  EngineFixture f(4);
  f.lg.add_edge(0, 1);
  f.lg.add_edge(2, 3);
  f.lg.add_edge(0, 3);
  EXPECT_EQ(f.count_all(2), 3u);
}

TEST(RecursiveEngine, CompleteLocalGraphClosedForms) {
  const int n = 10;
  for (int c = 1; c <= n; ++c) {
    EngineFixture f(n);
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) f.lg.add_edge(a, b);
    }
    EXPECT_EQ(f.count_all(c), binomial(n, c)) << "c=" << c;
  }
}

TEST(RecursiveEngine, PathHasNoTriangles) {
  EngineFixture f(6);
  for (int a = 0; a + 1 < 6; ++a) f.lg.add_edge(a, a + 1);
  EXPECT_EQ(f.count_all(3), 0u);
  EXPECT_EQ(f.count_all(2), 5u);
}

TEST(RecursiveEngine, CrossesWordBoundary) {
  // A complete local graph on 70 vertices exercises the 2-word bitset path.
  const int n = 70;
  EngineFixture f(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) f.lg.add_edge(a, b);
  }
  EXPECT_EQ(f.count_all(3), binomial(70, 3));
  EXPECT_EQ(f.count_all(4), binomial(70, 4));
}

TEST(RecursiveEngine, IntervalRestrictionPreventsDoubleCounting) {
  // Two triangles sharing an edge: {0,1,2} and {0,2,3} (edges 01 02 12 23 03).
  // A 3-clique search must count each exactly once even though vertex 0 and
  // 2 are common neighbors of several pairs.
  EngineFixture f(4);
  f.lg.add_edge(0, 1);
  f.lg.add_edge(0, 2);
  f.lg.add_edge(1, 2);
  f.lg.add_edge(2, 3);
  f.lg.add_edge(0, 3);
  EXPECT_EQ(f.count_all(3), 2u);
}

TEST(RecursiveEngine, CountersTrackProbes) {
  // K8 minus one edge, listed: a count of c >= 3 pivots and probes no pair.
  EngineFixture f(8);
  for (int a = 0; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) {
      if (a != 0 || b != 7) f.lg.add_edge(a, b);
    }
  }
  const std::vector<node_t> identity = {0, 1, 2, 3, 4, 5, 6, 7};
  const CliqueCallback walk_only = [](std::span<const node_t>) { return true; };
  f.ctx.callback = &walk_only;
  f.ctx.member_to_orig = identity.data();
  EXPECT_EQ(f.count_all(4), binomial(8, 4) - binomial(6, 2));
  EXPECT_GT(f.ctr.pairs_probed, 0u);
  EXPECT_GT(f.ctr.edges_matched, 0u);
  EXPECT_GE(f.ctr.pairs_probed, f.ctr.edges_matched);
  EXPECT_GT(f.ctr.recursive_calls, 0u);
}

TEST(RecursiveEngine, PruneFlagOnlyChangesWork) {
  for (const bool prune : {true, false}) {
    EngineFixture f(12);
    for (int a = 0; a < 12; ++a) {
      for (int b = a + 1; b < 12; ++b) f.lg.add_edge(a, b);
    }
    f.ctx.prune = prune;
    EXPECT_EQ(f.count_all(6), binomial(12, 6)) << "prune=" << prune;
  }
}

TEST(RecursiveEngine, VertexGrowthMatchesEdgeGrowth) {
  // The vertex-at-a-time recursion (ArbCount / kcList dense path) must agree
  // with the edge-growth recursion on random local graphs, across word
  // boundaries and clique sizes.
  std::mt19937 rng(7);
  for (const int n : {6, 40, 70, 130}) {
    EngineFixture f(n);
    std::bernoulli_distribution edge(0.35);
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (edge(rng)) f.lg.add_edge(a, b);
      }
    }
    for (int c = 1; c <= 5; ++c) {
      EXPECT_EQ(f.count_vertex_all(c), f.count_all(c)) << "n=" << n << " c=" << c;
    }
  }
}

TEST(RecursiveEngine, VertexGrowthCompleteGraphClosedForms) {
  const int n = 70;  // crosses the word boundary
  EngineFixture f(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) f.lg.add_edge(a, b);
  }
  for (int c = 1; c <= 6; ++c) {
    EXPECT_EQ(f.count_vertex_all(c), binomial(n, c)) << "c=" << c;
  }
}

TEST(RecursiveEngine, VertexGrowthListsCliques) {
  EngineFixture f(4);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) f.lg.add_edge(a, b);
  }
  const node_t to_orig[] = {100, 101, 102, 103};
  std::vector<std::vector<node_t>> reported;
  const CliqueCallback cb = [&](std::span<const node_t> clique) {
    reported.emplace_back(clique.begin(), clique.end());
    return true;
  };
  f.ctx.callback = &cb;
  f.ctx.member_to_orig = to_orig;
  EXPECT_EQ(f.count_vertex_all(3), 4u);
  ASSERT_EQ(reported.size(), 4u);
  for (const auto& c : reported) ASSERT_EQ(c.size(), 3u);
}

TEST(RecursiveEngine, ScalarBackendMatchesHostDefault) {
  // Same graph, same counts, with the dispatch pinned to scalar vs whatever
  // the host selected — the substrate must be invisible to results.
  std::mt19937 rng(11);
  EngineFixture f(150);  // wide enough for padded (8-word) rows
  std::bernoulli_distribution edge(0.3);
  for (int a = 0; a < 150; ++a) {
    for (int b = a + 1; b < 150; ++b) {
      if (edge(rng)) f.lg.add_edge(a, b);
    }
  }
  const BackendGuard guard;
  std::vector<count_t> host, scalar;
  for (int c = 2; c <= 5; ++c) {
    host.push_back(f.count_all(c));
    host.push_back(f.count_vertex_all(c));
  }
  ASSERT_TRUE(bits::set_kernel_backend(bits::KernelBackend::Scalar));
  for (int c = 2; c <= 5; ++c) {
    scalar.push_back(f.count_all(c));
    scalar.push_back(f.count_vertex_all(c));
  }
  EXPECT_EQ(host, scalar);
}

/// Counts the c-cliques of `adj` (symmetric adjacency matrix) by extending
/// ascending vertex sets with common neighbours — the oracle for the
/// backend x width agreement test.
count_t brute_force_cliques(const std::vector<std::vector<char>>& adj, int c) {
  const int n = static_cast<int>(adj.size());
  std::function<count_t(const std::vector<int>&, int)> extend =
      [&](const std::vector<int>& cands, int need) -> count_t {
    if (need == 0) return 1;
    count_t total = 0;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      std::vector<int> next;
      for (std::size_t j = i + 1; j < cands.size(); ++j) {
        if (adj[static_cast<std::size_t>(cands[i])][static_cast<std::size_t>(cands[j])] != 0)
          next.push_back(cands[j]);
      }
      total += extend(next, need - 1);
    }
    return total;
  };
  std::vector<int> all(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
  return extend(all, c);
}

/// Everything one search reports: its count, its work counters, and (when
/// listing) an order-independent checksum of the cliques it emitted.
struct SearchTrace {
  count_t count = 0;
  count_t recursive_calls = 0, pairs_probed = 0, edges_matched = 0;
  count_t intersection_words = 0, leaf_work = 0;
  std::uint64_t checksum = 0;

  bool operator==(const SearchTrace&) const = default;
};

std::ostream& operator<<(std::ostream& os, const SearchTrace& t) {
  return os << "{count=" << t.count << " calls=" << t.recursive_calls
            << " probed=" << t.pairs_probed << " matched=" << t.edges_matched
            << " words=" << t.intersection_words << " leaf=" << t.leaf_work
            << " checksum=" << t.checksum << "}";
}

enum class Growth { Pair, Triangle, Vertex };

/// Runs one search over `lg` — on `candidates` when given (pair and
/// triangle growth only), else on the whole universe — and records its
/// trace. Listing reports local id v as `to_orig[v]`, or as v itself.
SearchTrace run_search(const LocalGraph& lg, Growth growth, int c, bool listing,
                       std::optional<std::span<const int>> candidates = std::nullopt,
                       const std::vector<node_t>* to_orig = nullptr) {
  SearchContext ctx;
  LocalCounters ctr;
  ctx.lg = &lg;
  ctx.ctr = &ctr;
  std::vector<node_t> identity(static_cast<std::size_t>(lg.size()));
  for (std::size_t v = 0; v < identity.size(); ++v) identity[v] = static_cast<node_t>(v);
  if (to_orig != nullptr) identity = *to_orig;
  SearchTrace t;
  const CliqueCallback cb = [&](std::span<const node_t> clique) {
    std::vector<node_t> sorted(clique.begin(), clique.end());
    std::sort(sorted.begin(), sorted.end());
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const node_t v : sorted) h = (h ^ v) * 0x100000001b3ULL;
    t.checksum += h;
    return true;
  };
  if (listing) {
    ctx.callback = &cb;
    ctx.member_to_orig = identity.data();
  }
  t.count = growth == Growth::Vertex
                ? search_cliques_vertex_all(ctx, c)
                : search_cliques_all(ctx, c, growth == Growth::Triangle, candidates);
  t.recursive_calls = ctr.recursive_calls;
  t.pairs_probed = ctr.pairs_probed;
  t.edges_matched = ctr.edges_matched;
  t.intersection_words = ctr.intersection_words;
  t.leaf_work = ctr.leaf_work;
  return t;
}

TEST(RecursiveEngine, BackendsAndWidthsAgreeWithBruteForce) {
  // Universes on both sides of the one-word path (<= 64 vertices) and of
  // the word boundaries; every backend runs its own search build (baseline
  // for scalar, POPCNT for the x86-64 vector backends). Same work, cheaper
  // operations: counts match brute force and every work counter is
  // identical across backends.
  const BackendGuard guard;
  const std::vector<bits::KernelBackend> backends = bits::available_kernel_backends();
  std::mt19937 rng(16);
  for (const int n : {1, 2, 63, 64, 65, 128, 129, 300}) {
    // Dense with seeded missing edges (sparser at 300 vertices, whose wide
    // rows send the long intervals through the kernel table), plus a planted
    // clique over bits 0, 62/63/64, 127/128 and 255/256, so community
    // intervals start at bit 0 and end on either side of word boundaries.
    std::bernoulli_distribution missing(n <= 64 ? 0.4 : n <= 129 ? 0.5 : 0.85);
    std::vector<std::vector<char>> adj(static_cast<std::size_t>(n),
                                       std::vector<char>(static_cast<std::size_t>(n), 0));
    std::vector<int> planted;
    for (const int v : {0, 1, 62, 63, 64, 65, 127, 128, 255, 256, 299}) {
      if (v < n) planted.push_back(v);
    }
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        const bool in_planted = std::count(planted.begin(), planted.end(), a) > 0 &&
                                std::count(planted.begin(), planted.end(), b) > 0;
        if (in_planted || !missing(rng)) {
          adj[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = 1;
          adj[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = 1;
        }
      }
    }
    LocalGraph lg;
    lg.reset(n);
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (adj[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] != 0) lg.add_edge(a, b);
      }
    }
    for (int c = 1; c <= 6; ++c) {
      const count_t expected = brute_force_cliques(adj, c);
      std::optional<std::uint64_t> checksum;  // of the first listing run
      for (const Growth growth : {Growth::Pair, Growth::Triangle, Growth::Vertex}) {
        for (const bool listing : {false, true}) {
          SearchTrace reference;
          for (const bits::KernelBackend b : backends) {
            ASSERT_TRUE(bits::set_kernel_backend(b));
            const SearchTrace t = run_search(lg, growth, c, listing);
            const std::string where = "n=" + std::to_string(n) + " c=" + std::to_string(c) +
                                      " growth=" + std::to_string(static_cast<int>(growth)) +
                                      " listing=" + std::to_string(listing) + " backend=" +
                                      bits::kernel_backend_name(b) + " search=" +
                                      search_build_name(b);
            EXPECT_EQ(t.count, expected) << where;
            if (b == backends.front()) {
              reference = t;
            } else {
              EXPECT_EQ(t, reference) << where;
            }
            // Every growth mode lists the same set of cliques.
            if (listing) {
              if (!checksum) checksum = t.checksum;
              EXPECT_EQ(t.checksum, *checksum) << where;
            }
          }
        }
      }
    }
  }
}

TEST(RecursiveEngine, CandidateSubsetAgreesWithCompactUniverse) {
  // c3List searches each community C(e) as a candidate subset of its
  // source's G[N+(u)] rather than as a compact G[C(e)]. The recursion
  // indexes the candidate array and its mask, never the universe, so both
  // must take the same steps: same cliques, same work counters — and the
  // same intersection_words while both universes are one word (wider
  // universes span more words per interval). Universes on both sides of
  // the one-word path and the word boundaries, every backend.
  const BackendGuard guard;
  const std::vector<bits::KernelBackend> backends = bits::available_kernel_backends();
  std::mt19937 rng(20);
  for (const int n : {1, 63, 64, 65, 129, 300}) {
    std::bernoulli_distribution edge(n <= 65 ? 0.5 : n <= 129 ? 0.35 : 0.15);
    std::bernoulli_distribution pick(0.6);
    LocalGraph universe;
    universe.reset(n);
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (edge(rng)) universe.add_edge(a, b);
      }
    }
    // A random candidate subset I, always holding the word-edge bits, with
    // a clique planted on those and on six spread-out candidates, so the
    // larger c have cliques to find and their intervals cross words.
    std::vector<int> I, planted;
    for (int v = 0; v < n; ++v) {
      const bool edge_bit = v == 0 || v == 63 || v == 64 || v == 128 || v == n - 1;
      if (edge_bit) planted.push_back(v);
      if (edge_bit || pick(rng)) I.push_back(v);
    }
    for (std::size_t i = 0; i < I.size(); i += std::max<std::size_t>(1, I.size() / 6))
      planted.push_back(I[i]);
    for (const int a : planted) {
      for (const int b : planted) {
        if (a < b) universe.add_edge(a, b);
      }
    }
    // G[I] built compactly: local id i is I[i].
    const int m = static_cast<int>(I.size());
    LocalGraph compact;
    compact.reset(m);
    for (int i = 0; i < m; ++i) {
      for (int j = i + 1; j < m; ++j) {
        if (universe.has_edge(I[static_cast<std::size_t>(i)], I[static_cast<std::size_t>(j)]))
          compact.add_edge(i, j);
      }
    }
    const std::vector<node_t> compact_to_universe(I.begin(), I.end());
    const bool one_word = universe.words() == 1 && compact.words() == 1;

    for (int c = 1; c <= 6; ++c) {
      for (const Growth growth : {Growth::Pair, Growth::Triangle}) {
        for (const bool listing : {false, true}) {
          for (const bits::KernelBackend b : backends) {
            ASSERT_TRUE(bits::set_kernel_backend(b));
            const std::string where = "n=" + std::to_string(n) + " |I|=" + std::to_string(m) +
                                      " c=" + std::to_string(c) +
                                      " growth=" + std::to_string(static_cast<int>(growth)) +
                                      " listing=" + std::to_string(listing) +
                                      " backend=" + bits::kernel_backend_name(b);
            SearchTrace subset =
                run_search(universe, growth, c, listing, std::span<const int>(I));
            SearchTrace whole = run_search(compact, growth, c, listing, std::nullopt,
                                           &compact_to_universe);
            if (!one_word) subset.intersection_words = whole.intersection_words;
            EXPECT_EQ(subset, whole) << where;
          }
        }
      }
    }
  }
}

TEST(RecursiveEngine, SearchBuildFollowsBackend) {
  EXPECT_STREQ(search_build_name(bits::KernelBackend::Scalar), "baseline");
  for (const bits::KernelBackend b : bits::available_kernel_backends()) {
    if (b == bits::KernelBackend::Scalar) continue;
#if defined(__x86_64__)
    EXPECT_STREQ(search_build_name(b), "popcnt") << bits::kernel_backend_name(b);
#else
    EXPECT_STREQ(search_build_name(b), "baseline") << bits::kernel_backend_name(b);
#endif
  }
}

TEST(RecursiveEngine, LocalGraphResetClearsLazily) {
  LocalGraph lg;
  lg.reset(200);
  EXPECT_EQ(lg.dirty_rows(), 0);
  lg.add_edge(3, 150);
  lg.add_edge(3, 7);
  EXPECT_EQ(lg.dirty_rows(), 3);  // rows 3, 150, 7
  EXPECT_TRUE(lg.has_edge(150, 3));

  // Shrinking reset: previously-populated rows must read empty again even
  // though only the dirty ones were cleared.
  lg.reset(160);
  EXPECT_EQ(lg.dirty_rows(), 0);
  for (int a = 0; a < 160; ++a) ASSERT_EQ(row_degree(lg, a), 0) << "a=" << a;
  EXPECT_FALSE(lg.has_edge(3, 7));

  // Re-population under the new (smaller) universe behaves normally.
  lg.add_edge(0, 159);
  EXPECT_TRUE(lg.has_edge(159, 0));
  EXPECT_EQ(row_degree(lg, 0), 1);

  // Growing reset after use: the new rows are zero too.
  lg.reset(500);
  for (int a = 0; a < 500; ++a) ASSERT_EQ(row_degree(lg, a), 0) << "a=" << a;
}

TEST(RecursiveEngine, LocalGraphStrideFollowsKernelContract) {
  LocalGraph lg;
  lg.reset(64);
  EXPECT_EQ(lg.words(), 1);  // narrow rows stay exact
  lg.reset(256);
  EXPECT_EQ(lg.words(), 4);
  lg.reset(257);
  EXPECT_EQ(lg.words(), 8);  // wide rows pad to the 512-bit width
}

TEST(RecursiveEngine, DenseSubproblemThresholdRoundTrip) {
  const int saved = dense_subproblem_min_vertices();
  set_dense_subproblem_min_vertices(1);
  EXPECT_TRUE(use_dense_subproblem(2, 4));        // tiny but dense
  EXPECT_FALSE(use_dense_subproblem(100, 100));   // big but sparse
  set_dense_subproblem_min_vertices(1000);
  EXPECT_FALSE(use_dense_subproblem(100, 10000));  // dense but below the floor
  set_dense_subproblem_min_vertices(saved);
}

TEST(RecursiveEngine, ListingReportsChosenVertices) {
  EngineFixture f(4);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) f.lg.add_edge(a, b);
  }
  const node_t to_orig[] = {100, 101, 102, 103};
  std::vector<std::vector<node_t>> reported;
  const CliqueCallback cb = [&](std::span<const node_t> clique) {
    std::vector<node_t> sorted(clique.begin(), clique.end());
    std::sort(sorted.begin(), sorted.end());
    reported.push_back(sorted);
    return true;
  };
  f.ctx.callback = &cb;
  f.ctx.member_to_orig = to_orig;
  EXPECT_EQ(f.count_all(3), 4u);
  ASSERT_EQ(reported.size(), 4u);
  for (const auto& c : reported) {
    ASSERT_EQ(c.size(), 3u);
    for (const node_t v : c) {
      ASSERT_GE(v, 100u);
      ASSERT_LE(v, 103u);
    }
  }
}

}  // namespace
}  // namespace c3
