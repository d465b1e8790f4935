// Tests for the closed-form helpers of Section 3 / Theorem 2.1.
#include "clique/combinatorics.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

#include "clique/bruteforce.hpp"
#include "graph/gen/generators.hpp"

namespace c3 {
namespace {

TEST(Combinatorics, BinomialBasics) {
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 6), 0u);
  EXPECT_EQ(binomial(6, 2), 15u);
  EXPECT_EQ(binomial(10, 3), 120u);
  EXPECT_EQ(binomial(52, 5), 2'598'960u);
}

TEST(Combinatorics, BinomialPascalRule) {
  for (count_t n = 1; n <= 20; ++n) {
    for (count_t k = 1; k <= n; ++k) {
      ASSERT_EQ(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k))
          << n << " choose " << k;
    }
  }
}

TEST(Combinatorics, BinomialIsExactUpToTheTopOf64Bits) {
  // Pascal's rule in 128 bits is the reference. The old 64-bit intermediate
  // returned 66,050,867,754,679,844 for C(64, 32) and wrapped C(68, 34).
  EXPECT_EQ(binomial(64, 32), 1'832'624'140'942'590'534u);
  std::vector<unsigned __int128> row{1};
  for (count_t n = 1; n <= 68; ++n) {
    std::vector<unsigned __int128> next(n + 1, 1);
    for (count_t k = 1; k < n; ++k) next[k] = row[k - 1] + row[k];
    row = std::move(next);
    if (n < 62) continue;
    for (count_t k = 0; k <= n + 1; ++k) {
      const unsigned __int128 expect = k <= n ? row[k] : 0;
      const std::optional<count_t> got = checked_binomial(n, k);
      if (expect > std::numeric_limits<count_t>::max()) {
        EXPECT_FALSE(got.has_value()) << n << " choose " << k;
        EXPECT_EQ(binomial(n, k), std::numeric_limits<count_t>::max()) << n << " choose " << k;
      } else {
        ASSERT_TRUE(got.has_value()) << n << " choose " << k;
        EXPECT_EQ(*got, static_cast<count_t>(expect)) << n << " choose " << k;
        EXPECT_EQ(binomial(n, k), static_cast<count_t>(expect)) << n << " choose " << k;
      }
    }
  }
  // The largest row that fits whole is n = 67; C(68, 34) does not.
  EXPECT_TRUE(checked_binomial(67, 33).has_value());
  EXPECT_FALSE(checked_binomial(68, 34).has_value());
}

TEST(Combinatorics, TuranCliquesMatchBruteForce) {
  for (const node_t n : {7, 10, 12}) {
    for (const node_t r : {2, 3, 4, 5}) {
      const Graph g = turan_graph(n, r);
      for (node_t k = 1; k <= r; ++k) {
        ASSERT_EQ(cliques_in_turan(n, r, k), brute_force_count(g, static_cast<int>(k)))
            << "n=" << n << " r=" << r << " k=" << k;
      }
      ASSERT_EQ(cliques_in_turan(n, r, r + 1), 0u);
    }
  }
}

TEST(Combinatorics, Theorem21GrowthBehaviour) {
  // The paper's improvement: the base (gamma+4-k)/2 *shrinks* with k, so the
  // bound beats the fixed-base (s/2)^(k-2) of Danisch et al. by a factor
  // that grows exponentially in k (Section 1.3).
  const double gamma = 20;
  auto fixed_base = [&](int k) {
    double r = 1.0;
    for (int i = 0; i < k - 2; ++i) r *= gamma / 2.0;
    return r;
  };
  double prev_ratio = 1.0;
  for (int k = 4; k <= 20; ++k) {
    const double ratio = theorem21_growth(gamma, k) / fixed_base(k);
    ASSERT_LE(ratio, prev_ratio) << "k=" << k;  // advantage grows with k
    prev_ratio = ratio;
  }
  EXPECT_LT(prev_ratio, 1e-6);  // exponential separation by k = 20
  EXPECT_EQ(theorem21_growth(gamma, static_cast<int>(gamma) + 4), 0.0);
  EXPECT_DOUBLE_EQ(theorem21_growth(gamma, 2), 1.0);
  // For fixed k it grows with gamma.
  EXPECT_LT(theorem21_growth(10, 6), theorem21_growth(30, 6));
}

TEST(Combinatorics, RelevantCountsEdgeCases) {
  EXPECT_EQ(relevant_vertex_count(5, 10), 0u);
  EXPECT_EQ(relevant_vertex_count(5, 4), 0u);
  EXPECT_EQ(relevant_vertex_count(5, 3), 1u);
  EXPECT_EQ(relevant_pair_count(2, 0), 1u);   // one pair, distance 0
  EXPECT_EQ(relevant_pair_count(1, 0), 0u);
  EXPECT_EQ(relevant_pair_count(6, 3), 3u);   // Figure 5
}

TEST(Combinatorics, CompleteCliquesConsistency) {
  for (count_t n = 1; n <= 12; ++n) {
    count_t total = 0;
    for (count_t k = 1; k <= n; ++k) total += cliques_in_complete(n, k);
    // Sum over all clique sizes = 2^n - 1 subsets.
    ASSERT_EQ(total, (count_t{1} << n) - 1) << "n=" << n;
  }
}

}  // namespace
}  // namespace c3
