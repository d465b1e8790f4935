// Counting by pivoting: every bitset count of c >= 3 builds Pivoter's
// succinct clique tree instead of walking Algorithm 2 (DESIGN.md §7,
// "Counting by pivoting"). These tests hold its counts to independent
// counters — a plain clique enumeration, Algorithm 2's listing walk and
// kcList's CSR recursion — on universes and source spans of one to three
// words, check that its counters are the same on every backend and worker
// count, and pin a dense-blocks count that only pivoting makes cheap.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "clique/api.hpp"
#include "clique/engine.hpp"
#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "parallel/parallel.hpp"
#include "util/bitkernels.hpp"

namespace c3 {
namespace {

constexpr Algorithm kPrepared[] = {Algorithm::C3List, Algorithm::C3ListCD, Algorithm::Hybrid,
                                   Algorithm::KCList, Algorithm::ArbCount};

/// Restores the active kernel backend, the worker cap and kcList's dense
/// threshold on scope exit.
struct SettingsGuard {
  bits::KernelBackend backend = bits::active_kernel_backend();
  int workers = num_workers();
  int dense_min = dense_subproblem_min_vertices();
  ~SettingsGuard() {
    bits::set_kernel_backend(backend);
    set_num_workers(workers);
    set_dense_subproblem_min_vertices(dense_min);
  }
};

/// The c-cliques of G[members] by plain enumeration: extend each clique by
/// its common neighbours above its last vertex.
count_t enumerate_cliques(const std::vector<std::vector<char>>& adj, const std::vector<int>& members,
                          int c) {
  if (c == 0) return 1;
  count_t total = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::vector<int> next;
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      if (adj[static_cast<std::size_t>(members[i])][static_cast<std::size_t>(members[j])] != 0)
        next.push_back(members[j]);
    }
    if (next.size() + 1 >= static_cast<std::size_t>(c)) total += enumerate_cliques(adj, next, c - 1);
  }
  return total;
}

/// A sparse backbone with a random G(core, core_edges) spread over every
/// other vertex: its degeneracy, and so s-tilde, is the core's.
Graph cored_graph(node_t n, edge_t m, node_t core, edge_t core_edges, std::uint64_t seed) {
  const Graph base = social_like(n, m, 0.4, seed);
  const Graph dense = erdos_renyi(core, core_edges, seed + 1);
  EdgeList edges(base.endpoints().begin(), base.endpoints().end());
  for (const Edge& e : dense.endpoints()) edges.push_back(Edge{2 * e.u, 2 * e.v});
  return build_graph(edges, n);
}

TEST(PivotCount, EngineAgreesWithEnumerationAndTheWalk) {
  // Universes of one to three words, the top-level set the whole universe
  // or a subset starting past word 0 (its span then starts mid-universe),
  // each with a dense but incomplete block planted across word edges: the
  // pivot count equals a plain enumeration and Algorithm 2's listing walk,
  // probes no pair, books its count as leaf_work, and takes identical steps
  // on every backend.
  const SettingsGuard guard;
  std::mt19937 rng(23);
  for (const int n : {12, 64, 65, 100, 130, 190}) {
    std::bernoulli_distribution edge(n <= 65 ? 0.45 : 0.2);
    std::bernoulli_distribution keep(0.9);
    std::vector<std::vector<char>> adj(static_cast<std::size_t>(n),
                                       std::vector<char>(static_cast<std::size_t>(n), 0));
    std::vector<int> block;
    for (int v = 1; v < n; v += std::max(1, n / 24)) block.push_back(v);
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        const bool in_block = std::binary_search(block.begin(), block.end(), a) &&
                              std::binary_search(block.begin(), block.end(), b);
        if (in_block ? keep(rng) : edge(rng)) {
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
    std::vector<int> all(static_cast<std::size_t>(n)), upper;
    for (int v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
    for (const int v : all) {
      if (v >= std::min(n / 2, 64)) upper.push_back(v);
    }
    const std::vector<node_t> identity(all.begin(), all.end());
    const CliqueCallback walk_only = [](std::span<const node_t>) { return true; };

    for (const std::vector<int>* top : {&all, &upper}) {
      for (int c = 3; c <= 8; ++c) {
        const count_t expected = enumerate_cliques(adj, *top, c);
        LocalCounters reference;
        for (const bits::KernelBackend b : bits::available_kernel_backends()) {
          ASSERT_TRUE(bits::set_kernel_backend(b));
          const std::string where = "n=" + std::to_string(n) + " |I|=" +
                                    std::to_string(top->size()) + " c=" + std::to_string(c) +
                                    " backend=" + bits::kernel_backend_name(b);
          SearchContext ctx;
          LocalCounters ctr;
          ctx.lg = &lg;
          ctx.ctr = &ctr;
          const count_t counted = search_cliques_all(ctx, c, false, std::span<const int>(*top));
          EXPECT_EQ(counted, expected) << where;
          EXPECT_EQ(ctr.pairs_probed, 0u) << where;
          EXPECT_EQ(ctr.edges_matched, 0u) << where;
          EXPECT_EQ(ctr.leaf_work, expected) << where;
          EXPECT_FALSE(ctr.count_overflow) << where;
          if (b == bits::available_kernel_backends().front()) {
            reference = ctr;
          } else {
            EXPECT_EQ(ctr.recursive_calls, reference.recursive_calls) << where;
            EXPECT_EQ(ctr.intersection_words, reference.intersection_words) << where;
            EXPECT_EQ(ctr.closed_form_sets, reference.closed_form_sets) << where;
          }
          if (top == &all) {
            SearchContext vctx;
            LocalCounters vctr;
            vctx.lg = &lg;
            vctx.ctr = &vctr;
            EXPECT_EQ(search_cliques_vertex_all(vctx, c), expected) << where;
            EXPECT_EQ(vctr.recursive_calls, ctr.recursive_calls) << where;
          }
          SearchContext lctx;
          LocalCounters lctr;
          lctx.lg = &lg;
          lctx.ctr = &lctr;
          lctx.callback = &walk_only;
          lctx.member_to_orig = identity.data();
          EXPECT_EQ(search_cliques_all(lctx, c, false, std::span<const int>(*top)), expected)
              << where;
        }
      }
    }
  }
}

TEST(PivotCount, AgreesWithKCListCsrOnWideSourceSpans) {
  // s-tilde 67 and 83: c3List's source universes and the vertex-centric
  // subproblems span two words. Every algorithm's count, at c = 3..8 for
  // c3List, equals kcList's CSR recursion, which never pivots.
  const SettingsGuard guard;
  struct Case {
    Graph g;
    int kmax;
  };
  const Case cases[] = {{cored_graph(400, 2000, 140, 5400, 5), 10},
                        {cored_graph(400, 2000, 160, 7500, 5), 7}};
  for (const Case& c : cases) {
    CliqueOptions kclist;
    kclist.algorithm = Algorithm::KCList;
    const PreparedGraph csr(c.g, kclist);
    std::vector<count_t> expect(static_cast<std::size_t>(c.kmax) + 1);
    set_dense_subproblem_min_vertices(1 << 30);
    for (int k = 5; k <= c.kmax; ++k) {
      const CliqueResult r = csr.count(k);
      EXPECT_EQ(r.stats.dense_subproblems, 0u);
      expect[static_cast<std::size_t>(k)] = r.count;
    }
    set_dense_subproblem_min_vertices(guard.dense_min);
    for (const Algorithm alg : kPrepared) {
      CliqueOptions opts;
      opts.algorithm = alg;
      const PreparedGraph engine(c.g, opts);
      for (int k = 5; k <= c.kmax; ++k) {
        const std::string where = std::string(algorithm_name(alg)) +
                                  " n=" + std::to_string(c.g.num_nodes()) +
                                  " k=" + std::to_string(k);
        const CliqueResult r = engine.count(k);
        EXPECT_EQ(r.count, expect[static_cast<std::size_t>(k)]) << where;
        if (alg == Algorithm::C3List) {
          EXPECT_GE(r.stats.order_quality, 65u) << where;
          EXPECT_LE(r.stats.order_quality, 130u) << where;
        }
      }
    }
  }
}

TEST(PivotCount, CountersAreIdenticalAcrossBackendsAndWorkers) {
  // A pivot tree depends on the top-level set alone, so every counter is the
  // same on every backend and worker count; the bitset-only algorithms
  // probe no pair, and leaf_work sums to the count everywhere.
  const SettingsGuard guard;
  const Graph g = cored_graph(400, 2000, 140, 5400, 5);
  for (const Algorithm alg : kPrepared) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);
    for (const int k : {6, 9}) {
      CliqueStats reference;
      bool first = true;
      for (const bits::KernelBackend b : bits::available_kernel_backends()) {
        ASSERT_TRUE(bits::set_kernel_backend(b));
        for (const int workers : {1, std::max(4, max_workers())}) {
          set_num_workers(workers);
          const std::string where = std::string(algorithm_name(alg)) + " k=" +
                                    std::to_string(k) + " " + bits::kernel_backend_name(b) +
                                    " workers=" + std::to_string(workers);
          const CliqueStats s = engine.count(k).stats;
          EXPECT_EQ(s.leaf_work, s.cliques) << where;
          if (alg != Algorithm::KCList) {
            EXPECT_EQ(s.pairs_probed, 0u) << where;
            EXPECT_EQ(s.edges_matched, 0u) << where;
          }
          if (first) {
            reference = s;
            first = false;
            continue;
          }
          EXPECT_EQ(s.cliques, reference.cliques) << where;
          EXPECT_EQ(s.top_level_tasks, reference.top_level_tasks) << where;
          EXPECT_EQ(s.recursive_calls, reference.recursive_calls) << where;
          EXPECT_EQ(s.pairs_probed, reference.pairs_probed) << where;
          EXPECT_EQ(s.edges_matched, reference.edges_matched) << where;
          EXPECT_EQ(s.intersection_words, reference.intersection_words) << where;
          EXPECT_EQ(s.closed_form_sets, reference.closed_form_sets) << where;
          EXPECT_EQ(s.dense_subproblems, reference.dense_subproblems) << where;
        }
      }
    }
  }
}

TEST(PivotCount, DenseBlocksCountIsPinned) {
  // bench_kernels' dense_blocks in small: two overlapping 60-cliques (15
  // shared vertices) and a 30-vertex block missing a tenth of its pairs, on
  // a sparse backbone. Their union is dense but not complete, which the
  // complete-set closed form alone walked pair by pair; pivoting counts it
  // in milliseconds. The counts were taken from the walk and kcList's CSR
  // recursion, which agree.
  const SettingsGuard guard;
  const Graph base = social_like(300, 1500, 0.4, 21);
  EdgeList edges(base.endpoints().begin(), base.endpoints().end());
  const auto block = [&](node_t first, node_t stride, node_t size, node_t gap) {
    for (node_t i = 0; i < size; ++i) {
      for (node_t j = i + 1; j < size; ++j) {
        if (gap == 0 || (i * 7 + j * 13) % gap != 0)
          edges.push_back(Edge{first + i * stride, first + j * stride});
      }
    }
  };
  block(0, 3, 60, 0);
  block(90, 2, 60, 0);
  block(181, 3, 30, 10);
  const Graph g = build_graph(edges, 300);
  const std::pair<int, count_t> pins[] = {
      {8, 5118433965}, {12, 2798720532713}, {16, 299216752409719}};
  for (const int workers : {1, std::max(4, max_workers())}) {
    set_num_workers(workers);
    for (const Algorithm alg : kPrepared) {
      CliqueOptions opts;
      opts.algorithm = alg;
      const PreparedGraph engine(g, opts);
      engine.prepare();
      for (const auto& [k, count] : pins) {
        EXPECT_EQ(engine.count(k).count, count)
            << algorithm_name(alg) << " workers=" << workers << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace c3
