// Counting closed forms: a count takes every complete candidate set as
// C(|I|, c) instead of walking it, at the leaves of its pivot tree (DESIGN.md
// §7, "Counting by pivoting"). These tests hold its answers to brute force
// and to listing, check that it builds nothing below a complete top-level
// set, that listing still walks the whole tree, and that counts past 64 bits
// are refused rather than wrapped.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/combinatorics.hpp"
#include "clique/engine.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "parallel/parallel.hpp"
#include "test_helpers.hpp"
#include "util/bitkernels.hpp"
#include "util/timer.hpp"

namespace c3 {
namespace {

constexpr Algorithm kPrepared[] = {Algorithm::C3List, Algorithm::C3ListCD, Algorithm::Hybrid,
                                   Algorithm::KCList, Algorithm::ArbCount};

/// Restores the active kernel backend and the worker cap on scope exit.
struct SettingsGuard {
  bits::KernelBackend backend = bits::active_kernel_backend();
  int workers = num_workers();
  ~SettingsGuard() {
    bits::set_kernel_backend(backend);
    set_num_workers(workers);
  }
};

/// Only the community-centric algorithms read triangle_growth.
bool has_triangle_growth(Algorithm alg) {
  return alg == Algorithm::C3List || alg == Algorithm::C3ListCD || alg == Algorithm::Hybrid;
}

EdgeList edges_of(const Graph& g) {
  EdgeList edges;
  for (node_t u = 0; u < g.num_nodes(); ++u) {
    for (const node_t v : g.neighbors(u)) {
      if (u < v) edges.push_back(Edge{u, v});
    }
  }
  return edges;
}

/// Disjoint cliques of the given sizes, numbered consecutively.
EdgeList disjoint_cliques(const std::vector<node_t>& sizes, node_t& n) {
  EdgeList edges;
  n = 0;
  for (const node_t s : sizes) {
    for (node_t i = 0; i < s; ++i) {
      for (node_t j = i + 1; j < s; ++j) edges.push_back(Edge{n + i, n + j});
    }
    n += s;
  }
  return edges;
}

TEST(CountingClosedForm, CountsEqualBruteForceAndListing) {
  const SettingsGuard guard;
  struct Case {
    std::string name;
    Graph g;
    std::vector<int> ks;  // both parities of c = k - 2, not every k
  };
  std::vector<Case> cases;
  cases.push_back({"K14", complete_graph(14), {3, 4, 6, 9}});
  {
    EdgeList edges = edges_of(complete_graph(14));
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [](const Edge& e) { return e.u == 3 && e.v == 11; }),
                edges.end());
    cases.push_back({"K14 minus an edge", build_graph(edges, 14), {3, 4, 6, 9}});
  }
  {
    node_t n = 0;
    EdgeList edges = disjoint_cliques({4, 6, 9, 12, 15}, n);
    const Graph noise = erdos_renyi(n, 40, 3);
    const EdgeList extra = edges_of(noise);
    edges.insert(edges.end(), extra.begin(), extra.end());
    cases.push_back({"cliques plus noise", build_graph(edges, n), {3, 5, 8}});
  }
  cases.push_back(
      {"social_like + K16", testing::with_planted_clique(social_like(200, 1200, 0.5, 7), 16),
       {3, 5, 8}});

  for (const Case& c : cases) {
    std::vector<count_t> expect(10);
    for (const int k : c.ks) expect[static_cast<std::size_t>(k)] = brute_force_count(c.g, k);
    for (const Algorithm alg : kPrepared) {
      for (const bool triangles : {false, true}) {
        if (triangles && !has_triangle_growth(alg)) continue;
        CliqueOptions opts;
        opts.algorithm = alg;
        opts.triangle_growth = triangles;
        const PreparedGraph engine(c.g, opts);
        count_t closed = 0;
        for (const bits::KernelBackend backend : bits::available_kernel_backends()) {
          ASSERT_TRUE(bits::set_kernel_backend(backend));
          for (const int workers : {1, std::max(4, max_workers())}) {
            set_num_workers(workers);
            for (const int k : c.ks) {
              const std::string where = c.name + " " + algorithm_name(alg) +
                                        (triangles ? " triangles" : " pairs") + " " +
                                        bits::kernel_backend_name(backend) +
                                        " workers=" + std::to_string(workers) +
                                        " k=" + std::to_string(k);
              const CliqueResult counted = engine.count(k);
              std::atomic<count_t> emitted{0};
              const CliqueResult listed = engine.list(k, [&](std::span<const node_t>) {
                emitted.fetch_add(1, std::memory_order_relaxed);
                return true;
              });
              const count_t want = expect[static_cast<std::size_t>(k)];
              EXPECT_EQ(counted.count, want) << where;
              EXPECT_EQ(listed.count, want) << where;
              EXPECT_EQ(emitted.load(), want) << where;
              EXPECT_EQ(listed.stats.closed_form_sets, 0u) << where;
              closed += counted.stats.closed_form_sets;
            }
          }
        }
        EXPECT_GT(closed, 0u) << c.name << " " << algorithm_name(alg);
      }
    }
  }
}

TEST(CountingClosedForm, WideUniversesAgreeAcrossAlgorithms) {
  // s-tilde = 69: source universes and candidate masks span two words. The
  // k = 5 count is pinned by C3List.PerSourceBuildWalksTheSameSearchTree; at
  // k = 12 the K70 dominates, and only closed forms make the count
  // affordable.
  const SettingsGuard guard;
  const Graph g = testing::with_planted_clique(social_like(300, 1500, 0.5, 11), 70);
  const std::vector<std::pair<int, count_t>> pinned = {{5, 12106425}};
  CliqueOptions reference;
  reference.algorithm = Algorithm::C3List;
  const PreparedGraph c3list(g, reference);
  const count_t at12 = c3list.count(12).count;
  EXPECT_GE(at12, binomial(70, 12));
  for (const Algorithm alg : kPrepared) {
    for (const bool triangles : {false, true}) {
      if (triangles && !has_triangle_growth(alg)) continue;
      CliqueOptions opts;
      opts.algorithm = alg;
      opts.triangle_growth = triangles;
      const PreparedGraph engine(g, opts);
      for (const bits::KernelBackend backend : bits::available_kernel_backends()) {
        ASSERT_TRUE(bits::set_kernel_backend(backend));
        for (const int workers : {1, std::max(4, max_workers())}) {
          set_num_workers(workers);
          const std::string where = std::string(algorithm_name(alg)) +
                                    (triangles ? " triangles " : " pairs ") +
                                    bits::kernel_backend_name(backend) +
                                    " workers=" + std::to_string(workers);
          for (const auto& [k, count] : pinned) {
            EXPECT_EQ(engine.count(k).count, count) << where << " k=" << k;
          }
          const CliqueResult r = engine.count(12);
          EXPECT_EQ(r.count, at12) << where << " k=12";
          EXPECT_GT(r.stats.closed_form_sets, 0u) << where << " k=12";
        }
      }
    }
  }
}

TEST(CountingClosedForm, DisjointCliquesWalkNothingBelowTheTopLevel) {
  // Every top-level candidate set of a disjoint union of cliques is
  // complete, so each top-level search is one recursive call that returns
  // C(|I|, c): its probe counters stay zero and leaf_work is the count.
  node_t n = 0;
  const EdgeList edges = disjoint_cliques({5, 6, 7, 8, 9, 10, 11, 12}, n);
  const Graph g = build_graph(edges, n);
  const SettingsGuard guard;
  for (const int workers : {1, std::max(4, max_workers())}) {
    set_num_workers(workers);
    for (const Algorithm alg : kPrepared) {
      CliqueOptions opts;
      opts.algorithm = alg;
      const PreparedGraph engine(g, opts);
      engine.prepare();
      for (int k = 5; k <= 9; ++k) {
        const std::string where = std::string(algorithm_name(alg)) +
                                  " workers=" + std::to_string(workers) +
                                  " k=" + std::to_string(k);
        count_t expect = 0;
        for (count_t s = 5; s <= 12; ++s) expect += binomial(s, static_cast<count_t>(k));
        const CliqueResult r = engine.count(k);
        EXPECT_EQ(r.count, expect) << where;
        EXPECT_EQ(r.stats.leaf_work, expect) << where;
        EXPECT_EQ(r.stats.pairs_probed, 0u) << where;
        EXPECT_EQ(r.stats.edges_matched, 0u) << where;
        // Top-level searches: one per qualifying arc for c3List, one per
        // edge with a large enough V'(e) for c3List-CD, one per vertex with
        // at least k - 1 out-neighbours for the vertex-centric three.
        count_t searches = r.stats.top_level_tasks;
        if (alg != Algorithm::C3List && alg != Algorithm::C3ListCD) {
          const Digraph* dag = engine.dag_if_built();
          ASSERT_NE(dag, nullptr);
          searches = 0;
          for (node_t u = 0; u < dag->num_nodes(); ++u) {
            if (dag->out_neighbors(u).size() >= static_cast<std::size_t>(k - 1)) ++searches;
          }
        }
        EXPECT_EQ(r.stats.recursive_calls, searches) << where;
        EXPECT_EQ(r.stats.closed_form_sets, searches) << where;
      }
    }
  }
}

TEST(CountingClosedForm, ListingWalksTheSameTreeAsBefore) {
  // Listing never takes the closed form: its work counters on this input are
  // the values the walk had before counting learned the closed form, at any
  // worker count.
  struct Pinned {
    Algorithm alg;
    int k;
    count_t count, calls, probed, matched, words, leaf;
  };
  const Graph g = testing::with_planted_clique(social_like(200, 1200, 0.5, 7), 16);
  const Pinned pins[] = {
      {Algorithm::C3List, 5, 4409, 1579, 1659, 1461, 1461, 4409},
      {Algorithm::C3List, 6, 8012, 1126, 1114, 1031, 1031, 8012},
      {Algorithm::C3List, 7, 11440, 5798, 5751, 5727, 5727, 11440},
      {Algorithm::C3ListCD, 5, 4409, 1512, 1544, 1427, 1427, 4409},
      {Algorithm::C3ListCD, 6, 8012, 1069, 1129, 1032, 1032, 8012},
      {Algorithm::C3ListCD, 7, 11440, 5773, 5849, 5760, 5760, 11440},
      {Algorithm::Hybrid, 5, 4409, 533, 1583, 741, 741, 4409},
      {Algorithm::Hybrid, 6, 8012, 3388, 4129, 3521, 3521, 8012},
      {Algorithm::Hybrid, 7, 11440, 2292, 2783, 2355, 2355, 11440},
      {Algorithm::KCList, 5, 4409, 693, 9796, 3354, 0, 4409},
      {Algorithm::KCList, 6, 8012, 1492, 21577, 7421, 0, 8012},
      {Algorithm::KCList, 7, 11440, 3074, 39624, 14648, 0, 11440},
      {Algorithm::ArbCount, 5, 4409, 682, 3431, 562, 3431, 4409},
      {Algorithm::ArbCount, 6, 8012, 1482, 6914, 1391, 6914, 8012},
      {Algorithm::ArbCount, 7, 11440, 3072, 12905, 3002, 12905, 11440},
  };
  const SettingsGuard guard;
  for (const int workers : {1, std::max(4, max_workers())}) {
    set_num_workers(workers);
    for (const Pinned& p : pins) {
      CliqueOptions opts;
      opts.algorithm = p.alg;
      const CliqueResult r = list_cliques(g, p.k, [](std::span<const node_t>) { return true; }, opts);
      const std::string where = std::string(algorithm_name(p.alg)) +
                                " workers=" + std::to_string(workers) +
                                " k=" + std::to_string(p.k);
      EXPECT_EQ(r.count, p.count) << where;
      EXPECT_EQ(r.stats.recursive_calls, p.calls) << where;
      EXPECT_EQ(r.stats.pairs_probed, p.probed) << where;
      EXPECT_EQ(r.stats.edges_matched, p.matched) << where;
      EXPECT_EQ(r.stats.intersection_words, p.words) << where;
      EXPECT_EQ(r.stats.leaf_work, p.leaf) << where;
      EXPECT_EQ(r.stats.closed_form_sets, 0u) << where;
    }
  }
}

TEST(CountingClosedForm, CountsPast64BitsAreRefused) {
  // K68 holds C(68, 36) ~ 2.2e19 36-cliques, more than count_t holds. Closed
  // forms reach that total in milliseconds; it must be refused, never
  // answered with a wrapped value. K67's largest count still fits and is
  // exact.
  const SettingsGuard guard;
  const Graph k68 = complete_graph(68);
  const Graph k67 = complete_graph(67);
  for (const int workers : {1, std::max(4, max_workers())}) {
    set_num_workers(workers);
    for (const Algorithm alg : kPrepared) {
      CliqueOptions opts;
      opts.algorithm = alg;
      const std::string where =
          std::string(algorithm_name(alg)) + " workers=" + std::to_string(workers);
      const PreparedGraph engine(k68, opts);
      engine.prepare();
      const WallTimer timer;
      try {
        const CliqueResult r = engine.count(36);
        ADD_FAILURE() << where << ": answered " << r.count;
      } catch (const std::overflow_error& e) {
        EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos) << where;
      }
      EXPECT_LT(timer.seconds(), 1.0) << where;
      EXPECT_EQ(PreparedGraph(k67, opts).count(33).count, binomial(67, 33)) << where;
    }
  }
}

}  // namespace
}  // namespace c3
