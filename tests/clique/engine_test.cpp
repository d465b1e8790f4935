// Tests for the plan/execute query engine (PreparedGraph): prepared queries
// must match the one-shot entry points for every algorithm and order, and a
// reused engine must prepare exactly once.
#include "clique/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "clique/api.hpp"
#include "clique/bruteforce.hpp"
#include "clique/local_graph.hpp"
#include "clique/max_clique.hpp"
#include "clique/spectrum.hpp"
#include "clique/vertex_counts.hpp"
#include "graph/gen/generators.hpp"
#include "parallel/parallel.hpp"
#include "test_helpers.hpp"
#include "util/bitkernels.hpp"

namespace c3 {
namespace {

const Algorithm kAllAlgorithms[] = {Algorithm::C3List,  Algorithm::C3ListCD,
                                    Algorithm::Hybrid,  Algorithm::KCList,
                                    Algorithm::ArbCount, Algorithm::BruteForce};

const Algorithm kPreparedAlgorithms[] = {Algorithm::C3List, Algorithm::C3ListCD,
                                         Algorithm::Hybrid, Algorithm::KCList,
                                         Algorithm::ArbCount};

TEST(Engine, PreparedMatchesOneShotAllAlgorithmsAndOrders) {
  const Graph graphs[] = {erdos_renyi(80, 600, 3), barabasi_albert(120, 5, 9)};
  for (const Graph& g : graphs) {
    for (const Algorithm alg : kAllAlgorithms) {
      for (const VertexOrderKind order :
           {VertexOrderKind::ExactDegeneracy, VertexOrderKind::ApproxDegeneracy}) {
        CliqueOptions opts;
        opts.algorithm = alg;
        opts.vertex_order = order;
        const PreparedGraph engine(g, opts);
        for (int k = 3; k <= 6; ++k) {
          EXPECT_EQ(engine.count(k).count, count_cliques(g, k, opts).count)
              << algorithm_name(alg) << " order " << static_cast<int>(order) << " k=" << k;
        }
      }
    }
  }
}

TEST(Engine, PreparedMatchesOneShotBothEdgeOrders) {
  const Graph g = erdos_renyi(60, 450, 5);
  for (const EdgeOrderKind edge_order : {EdgeOrderKind::ExactCommunityDegeneracy,
                                         EdgeOrderKind::ApproxCommunityDegeneracy}) {
    CliqueOptions opts;
    opts.algorithm = Algorithm::C3ListCD;
    opts.edge_order = edge_order;
    const PreparedGraph engine(g, opts);
    for (int k = 3; k <= 6; ++k) {
      EXPECT_EQ(engine.count(k).count, count_cliques(g, k, opts).count)
          << "edge order " << static_cast<int>(edge_order) << " k=" << k;
    }
  }
}

TEST(Engine, PreparesExactlyOnceAcrossKSweep) {
  const Graph g = social_like(200, 1500, 0.4, 21);
  for (const Algorithm alg : kPreparedAlgorithms) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);
    // The first query builds the artifacts and reports their cost...
    const CliqueResult first = engine.count(3);
    EXPECT_GT(first.stats.preprocess_seconds, 0.0) << algorithm_name(alg);
    // ...every later query reuses them: zero preparation, identical counts
    // to four independent one-shot calls.
    for (int k = 3; k <= 6; ++k) {
      const CliqueResult r = engine.count(k);
      EXPECT_EQ(r.stats.preprocess_seconds, 0.0) << algorithm_name(alg) << " k=" << k;
      EXPECT_EQ(r.count, count_cliques(g, k, opts).count) << algorithm_name(alg) << " k=" << k;
    }
  }
}

TEST(Engine, PrepareForcesArtifactsEagerly) {
  const Graph g = erdos_renyi(100, 700, 8);
  for (const Algorithm alg : kPreparedAlgorithms) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);
    engine.prepare();
    EXPECT_GT(engine.prepare_seconds(), 0.0) << algorithm_name(alg);
    const CliqueResult r = engine.count(4);
    EXPECT_EQ(r.stats.preprocess_seconds, 0.0) << algorithm_name(alg);
  }
}

TEST(Engine, RepeatedQueriesAreIdentical) {
  const Graph g = erdos_renyi(70, 520, 13);
  CliqueOptions opts;
  opts.algorithm = Algorithm::C3List;
  const PreparedGraph engine(g, opts);
  for (int k = 3; k <= 6; ++k) {
    const count_t expect = brute_force_count(g, k);
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(engine.count(k).count, expect) << "k=" << k << " rep=" << rep;
    }
  }
}

TEST(Engine, ListingThroughTheEngineIsValid) {
  const Graph g = erdos_renyi(50, 380, 29);
  for (const Algorithm alg : kPreparedAlgorithms) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);
    for (int k = 3; k <= 5; ++k) {
      const count_t expect = brute_force_count(g, k);
      testing::CliqueCollector collector(g, k);
      const CliqueResult r = engine.list(k, collector.callback());
      EXPECT_EQ(r.count, expect) << algorithm_name(alg) << " k=" << k;
      collector.expect_valid(expect);
    }
  }
}

TEST(Engine, MixedQueryTypesShareOnePreparation) {
  const Graph g = social_like(150, 1100, 0.45, 77);
  CliqueOptions opts;
  opts.algorithm = Algorithm::C3List;
  const PreparedGraph engine(g, opts);
  (void)engine.count(3);  // builds the artifacts

  // Spectrum, local counts, and max-clique queries all reuse them.
  const CliqueSpectrum spec = engine.spectrum();
  EXPECT_EQ(spec.preprocess_seconds, 0.0);
  EXPECT_EQ(spec.omega, max_clique_size(g));
  for (int k = 1; k <= static_cast<int>(spec.omega); ++k) {
    EXPECT_EQ(spec.counts[static_cast<std::size_t>(k)], count_cliques(g, k).count) << "k=" << k;
  }

  const int k = 4;
  const auto per_vertex = engine.per_vertex_counts(k);
  count_t total_times_k = 0;
  for (const count_t c : per_vertex) total_times_k += c;
  EXPECT_EQ(total_times_k, static_cast<count_t>(k) * engine.count(k).count);

  EXPECT_EQ(engine.max_clique_size(), spec.omega);
  EXPECT_TRUE(engine.has_clique(static_cast<int>(spec.omega)));
  EXPECT_FALSE(engine.has_clique(static_cast<int>(spec.omega) + 1));

  const auto witness = engine.max_clique();
  ASSERT_EQ(witness.size(), spec.omega);
  for (std::size_t i = 0; i < witness.size(); ++i) {
    for (std::size_t j = i + 1; j < witness.size(); ++j) {
      EXPECT_TRUE(g.has_edge(witness[i], witness[j]));
    }
  }
}

TEST(Engine, SpectrumMatchesOneShotForEveryAlgorithm) {
  const Graph g = erdos_renyi(60, 480, 41);
  const CliqueSpectrum base = clique_spectrum(g);
  for (const Algorithm alg : kPreparedAlgorithms) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);
    const CliqueSpectrum spec = engine.spectrum();
    EXPECT_EQ(spec.counts, base.counts) << algorithm_name(alg);
    EXPECT_EQ(spec.omega, base.omega) << algorithm_name(alg);
  }
}

TEST(Engine, TrivialSizesAndEmptyGraphs) {
  const Graph g = erdos_renyi(40, 120, 17);
  const PreparedGraph engine(g, {});
  EXPECT_EQ(engine.count(0).count, 0u);
  EXPECT_EQ(engine.count(1).count, 40u);
  EXPECT_EQ(engine.count(2).count, 120u);
  // Trivial sizes never build artifacts.
  EXPECT_EQ(engine.prepare_seconds(), 0.0);

  const Graph empty;
  const PreparedGraph none(empty, {});
  EXPECT_EQ(none.count(3).count, 0u);
  EXPECT_EQ(none.max_clique_size(), 0u);
  EXPECT_TRUE(none.max_clique().empty());
  EXPECT_EQ(none.spectrum().omega, 0u);
}

TEST(Engine, ThrowingCallbackLeavesEngineUsable) {
  // A callback that throws mid-enumeration unwinds past the searches'
  // backtracking restores; the leased scratch must come back clean (e.g.
  // every per-task state re-initialised by the next top-level task) so later
  // queries on the same engine still count correctly. Run at 1 worker: the serial loop is the only
  // configuration where an exception can legally unwind (OpenMP regions
  // would terminate), and it maximizes the dirtied state.
  const Graph g = erdos_renyi(80, 600, 3);
  for (const Algorithm alg : kPreparedAlgorithms) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);
    const count_t expect = engine.count(4).count;
    ASSERT_GT(expect, 0u) << algorithm_name(alg);

    const int old = set_num_workers(1);
    int seen = 0;
    const CliqueCallback bomb = [&](std::span<const node_t>) -> bool {
      if (++seen == 2) throw std::runtime_error("callback failure");
      return true;
    };
    EXPECT_THROW((void)engine.list(4, bomb), std::runtime_error) << algorithm_name(alg);
    set_num_workers(old);

    EXPECT_EQ(engine.count(4).count, expect) << algorithm_name(alg);
    EXPECT_EQ(engine.count(3).count, count_cliques(g, 3, opts).count) << algorithm_name(alg);
  }
}

TEST(Engine, SpectrumHonorsKmaxForTrivialSizes) {
  const Graph g = erdos_renyi(40, 120, 17);
  const PreparedGraph engine(g, {});
  const CliqueSpectrum s1 = engine.spectrum(1);
  EXPECT_EQ(s1.omega, 1u);
  EXPECT_EQ(s1.counts.size(), 2u);  // entries for k = 0, 1 only
  const CliqueSpectrum s2 = engine.spectrum(2);
  EXPECT_EQ(s2.omega, 2u);
  EXPECT_EQ(s2.counts.size(), 3u);
  EXPECT_EQ(s2.counts[2], 120u);
  // Trivial-size spectra need no artifacts.
  EXPECT_EQ(engine.artifacts_built(), 0);
}

TEST(Engine, CountsAreKernelBackendIndependent) {
  // Prepared-query equivalence with the bit-kernel dispatch pinned to
  // scalar vs the host default: the SIMD substrate must be invisible in
  // results for every algorithm, count and listing alike.
  const bits::KernelBackend host = bits::active_kernel_backend();
  const Graph g = social_like(300, 2600, 0.45, 33);
  for (const Algorithm alg : kAllAlgorithms) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);
    for (int k = 3; k <= 6; ++k) {
      ASSERT_TRUE(bits::set_kernel_backend(host));
      const count_t with_host = engine.count(k).count;
      ASSERT_TRUE(bits::set_kernel_backend(bits::KernelBackend::Scalar));
      const count_t with_scalar = engine.count(k).count;
      EXPECT_EQ(with_host, with_scalar) << algorithm_name(alg) << " k=" << k;
    }
    ASSERT_TRUE(bits::set_kernel_backend(host));
  }
}

TEST(Engine, ListingIsKernelBackendIndependent) {
  const bits::KernelBackend host = bits::active_kernel_backend();
  const Graph g = erdos_renyi(60, 480, 19);
  for (const Algorithm alg : kPreparedAlgorithms) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);
    const count_t expect = brute_force_count(g, 4);
    for (const bits::KernelBackend backend : {host, bits::KernelBackend::Scalar}) {
      ASSERT_TRUE(bits::set_kernel_backend(backend));
      testing::CliqueCollector collector(g, 4);
      const CliqueResult r = engine.list(4, collector.callback());
      EXPECT_EQ(r.count, expect)
          << algorithm_name(alg) << " backend=" << bits::kernel_backend_name(backend);
      collector.expect_valid(expect);
    }
    ASSERT_TRUE(bits::set_kernel_backend(host));
  }
}

TEST(Engine, KclistDenseAndCsrPathsAgree) {
  // Force the dense-subproblem selection all the way on and all the way off:
  // the bitset vertex-growth path and the CSR sub-degree recursion must
  // count the same cliques on the same prepared engine, down to the planted
  // clique's deep levels.
  const int saved = dense_subproblem_min_vertices();
  const Graph g = testing::with_planted_clique(social_like(300, 2600, 0.5, 91), 12);
  CliqueOptions opts;
  opts.algorithm = Algorithm::KCList;
  const PreparedGraph engine(g, opts);
  for (int k = 3; k <= 9; ++k) {
    set_dense_subproblem_min_vertices(1);  // every subproblem dense-eligible
    const count_t dense = engine.count(k).count;
    set_dense_subproblem_min_vertices(1 << 30);  // never dense
    const count_t csr = engine.count(k).count;
    EXPECT_EQ(dense, csr) << "k=" << k;
    EXPECT_EQ(csr, count_cliques(g, k).count) << "k=" << k;
  }
  set_dense_subproblem_min_vertices(saved);
}

TEST(Engine, UpperBoundIsValid) {
  const Graph g = social_like(150, 1100, 0.45, 55);
  const node_t omega = max_clique_size(g);
  for (const Algorithm alg : kAllAlgorithms) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);
    EXPECT_GE(engine.clique_number_upper_bound(), omega) << algorithm_name(alg);
  }
}

}  // namespace
}  // namespace c3
