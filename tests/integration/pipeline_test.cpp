// End-to-end pipeline: generate -> serialize -> reload -> analyze -> count,
// exactly as a downstream user would drive the library.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "c3list.hpp"

namespace c3 {
namespace {

TEST(Pipeline, GenerateSerializeAnalyzeCount) {
  // Per-process directory, so parallel ctest runs never share (or delete)
  // each other's files.
  const auto dir =
      std::filesystem::temp_directory_path() / ("c3list_pipeline_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  const Graph g = social_like(300, 2100, 0.4, 2026);
  write_edge_list(dir / "g.txt", g);
  write_graph_binary(dir / "g.bin", g);

  const Graph from_text = read_graph(dir / "g.txt");
  const Graph from_bin = read_graph_binary(dir / "g.bin");

  const GraphStats stats = compute_stats(g);
  EXPECT_EQ(stats.nodes, 300u);
  EXPECT_GT(stats.triangles, 0u);
  EXPECT_GT(stats.degeneracy, 2u);

  for (int k = 3; k <= 5; ++k) {
    const count_t direct = count_cliques(g, k).count;
    EXPECT_EQ(count_cliques(from_text, k).count, direct) << "text round trip, k=" << k;
    EXPECT_EQ(count_cliques(from_bin, k).count, direct) << "binary round trip, k=" << k;
  }

  std::filesystem::remove_all(dir);
}

TEST(Pipeline, FullAnalysisChain) {
  const Graph g = planted_clique(250, 600, 10, 31, nullptr);

  // Clique number via the search API and via Bron-Kerbosch agree.
  const node_t omega = max_clique_size(g);
  EXPECT_EQ(omega, max_clique_size_bk(g));
  EXPECT_EQ(omega, 10u);

  // The densest 4-clique subgraph has at least the planted core's density
  // over the approximation factor.
  const DensestResult densest = kclique_densest_peeling(g, 4);
  EXPECT_GT(densest.density, 0.0);

  // Maximal cliques include at least one of size omega.
  node_t largest_maximal = 0;
  (void)list_maximal_cliques(g, [&](std::span<const node_t> c) {
    largest_maximal = std::max(largest_maximal, static_cast<node_t>(c.size()));
    return true;
  });
  EXPECT_EQ(largest_maximal, omega);
}

TEST(Pipeline, CommunityDegeneracySigmaGuidesAlgorithmChoice) {
  // On a sigma << s graph, Algorithm 3's candidate sets (bounded by sigma)
  // are far smaller than the communities under the degeneracy orientation.
  const Graph g = bipartite_plus_line(24);
  const node_t s = degeneracy_order(g).degeneracy;
  const node_t sigma = community_degeneracy(g);
  EXPECT_LT(sigma + 5, s);

  CliqueOptions cd;
  cd.algorithm = Algorithm::C3ListCD;
  const CliqueResult r_cd = count_cliques(g, 3, cd);
  const CliqueResult r_c3 = count_cliques(g, 3);
  EXPECT_EQ(r_cd.count, r_c3.count);
  EXPECT_LE(r_cd.stats.gamma, sigma);
}

}  // namespace
}  // namespace c3
