// Tests for graph I/O (text edge lists and the binary format).
#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "clique/engine.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "snapshot/snapshot.hpp"

namespace c3 {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process directory: ctest runs each TEST_F as its own process, in
    // parallel — a shared path would let one test's TearDown delete files
    // another test is still reading.
    dir_ = std::filesystem::temp_directory_path() /
           ("c3list_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(IoTest, TextRoundTrip) {
  const Graph g = erdos_renyi(100, 300, 3);
  const auto path = dir_ / "g.txt";
  write_edge_list(path, g);
  const Graph h = read_graph(path);
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (node_t v = 0; v < g.num_nodes(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = h.neighbors(v);
    ASSERT_EQ(std::vector<node_t>(a.begin(), a.end()), std::vector<node_t>(b.begin(), b.end()));
  }
}

TEST_F(IoTest, ParsesCommentsBlanksAndWhitespace) {
  const auto path = dir_ / "messy.txt";
  std::ofstream out(path);
  out << "# snap-style comment\n\n% matrix-market style\n  0\t1 \n2 3\n1 2\n";
  out.close();
  const EdgeList edges = read_edge_list(path);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].u, 0u);
  EXPECT_EQ(edges[0].v, 1u);
  EXPECT_EQ(edges[2].u, 1u);
  EXPECT_EQ(edges[2].v, 2u);
}

TEST_F(IoTest, ThrowsOnMissingFile) {
  EXPECT_THROW((void)read_edge_list(dir_ / "nope.txt"), std::runtime_error);
}

TEST_F(IoTest, ThrowsOnMalformedLine) {
  const auto path = dir_ / "bad.txt";
  std::ofstream(path) << "0 1\nhello world\n";
  EXPECT_THROW((void)read_edge_list(path), std::invalid_argument);
}

TEST_F(IoTest, ThrowsOnTruncatedPair) {
  const auto path = dir_ / "bad2.txt";
  std::ofstream(path) << "0\n";
  EXPECT_THROW((void)read_edge_list(path), std::invalid_argument);
}

TEST_F(IoTest, BinaryRoundTrip) {
  const Graph g = rmat(256, 2000, 0.57, 0.19, 0.19, 11);
  const auto path = dir_ / "g.bin";
  write_graph_binary(path, g);
  const Graph h = read_graph_binary(path);
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (node_t v = 0; v < g.num_nodes(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = h.neighbors(v);
    ASSERT_EQ(std::vector<node_t>(a.begin(), a.end()), std::vector<node_t>(b.begin(), b.end()));
  }
}

TEST_F(IoTest, BinaryRejectsGarbage) {
  const auto path = dir_ / "junk.bin";
  std::ofstream(path, std::ios::binary) << "this is not a graph";
  EXPECT_THROW((void)read_graph_binary(path), std::runtime_error);
}

TEST_F(IoTest, BinaryRejectsTruncatedEdgeSection) {
  const Graph g = erdos_renyi(64, 256, 7);
  const auto path = dir_ / "trunc.bin";
  write_graph_binary(path, g);
  // Chop mid-edge: the header's edge count no longer fits the file.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
  try {
    (void)read_graph_binary(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("out of bounds"), std::string::npos) << e.what();
  }
}

TEST_F(IoTest, BinaryRejectsShortHeader) {
  const auto path = dir_ / "short.bin";
  std::ofstream(path, std::ios::binary) << "c3graph1\x02";  // magic + 1 byte
  try {
    (void)read_graph_binary(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated header"), std::string::npos) << e.what();
  }
}

TEST_F(IoTest, BinaryRejectsEdgeEndpointBeyondVertexCount) {
  // Hand-craft: magic, n=2, m=1, edge {5, 1} — 5 is outside [0, n).
  const auto path = dir_ / "badvertex.bin";
  std::ofstream out(path, std::ios::binary);
  out.write("c3graph1", 8);
  const std::uint64_t n = 2, m = 1;
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(&m), sizeof m);
  const std::uint32_t u = 5, v = 1;
  out.write(reinterpret_cast<const char*>(&u), sizeof u);
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
  out.close();
  try {
    (void)read_graph_binary(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("outside the header's vertex count"), std::string::npos)
        << e.what();
  }
}

TEST_F(IoTest, SymmetrizesDirectedInput) {
  // The same edge in both orientations must collapse to one.
  const auto path = dir_ / "dir.txt";
  std::ofstream(path) << "0 1\n1 0\n1 2\n";
  const Graph g = read_graph(path);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST_F(IoTest, MetisRoundTrip) {
  const Graph g = erdos_renyi(80, 250, 21);
  const auto path = dir_ / "g.metis";
  write_graph_metis(path, g);
  const Graph h = read_graph_metis(path);
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (node_t v = 0; v < g.num_nodes(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = h.neighbors(v);
    ASSERT_EQ(std::vector<node_t>(a.begin(), a.end()), std::vector<node_t>(b.begin(), b.end()));
  }
}

TEST_F(IoTest, MetisParsesHandWrittenFile) {
  // Triangle plus a pendant: 4 vertices, 4 edges, 1-based neighbor lists.
  const auto path = dir_ / "hand.metis";
  std::ofstream(path) << "% comment\n4 4\n2 3\n1 3\n1 2 4\n3\n";
  const Graph g = read_graph_metis(path);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
}

TEST_F(IoTest, MetisSkipsEdgeWeights) {
  // fmt=001: each neighbor followed by a weight.
  const auto path = dir_ / "weighted.metis";
  std::ofstream(path) << "3 2 001\n2 10 3 20\n1 10\n1 20\n";
  const Graph g = read_graph_metis(path);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST_F(IoTest, MetisRejectsTruncatedAndBadNeighbors) {
  const auto p1 = dir_ / "trunc.metis";
  std::ofstream(p1) << "3 1\n2\n";  // only one of three vertex lines
  EXPECT_THROW((void)read_graph_metis(p1), std::runtime_error);
  const auto p2 = dir_ / "badnbr.metis";
  std::ofstream(p2) << "2 1\n5\n\n";
  EXPECT_THROW((void)read_graph_metis(p2), std::invalid_argument);
}

TEST_F(IoTest, MatrixMarketParsesPatternAndValues) {
  const auto path = dir_ / "g.mtx";
  std::ofstream(path) << "%%MatrixMarket matrix coordinate real symmetric\n"
                      << "% SuiteSparse-style comment\n"
                      << "4 4 5\n"
                      << "2 1 0.5\n3 1 -1\n3 2 2.0\n4 4 9\n4 3 1\n";
  const Graph g = read_graph_matrix_market(path);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);  // diagonal 4-4 dropped
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST_F(IoTest, MatrixMarketRejectsBadBannerAndTruncation) {
  const auto p1 = dir_ / "nobanner.mtx";
  std::ofstream(p1) << "3 3 1\n1 2\n";
  EXPECT_THROW((void)read_graph_matrix_market(p1), std::invalid_argument);
  const auto p2 = dir_ / "short.mtx";
  std::ofstream(p2) << "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n";
  EXPECT_THROW((void)read_graph_matrix_market(p2), std::runtime_error);
}

TEST_F(IoTest, ReadGraphAnyDispatchesOnExtension) {
  const Graph g = erdos_renyi(40, 120, 33);
  write_edge_list(dir_ / "a.txt", g);
  write_graph_binary(dir_ / "a.bin", g);
  write_graph_metis(dir_ / "a.metis", g);
  const PreparedGraph engine(g, {});
  snapshot::write(dir_ / "a.c3snap", engine);
  for (const char* name : {"a.txt", "a.bin", "a.metis", "a.c3snap"}) {
    const Graph h = read_graph_any(dir_ / name);
    ASSERT_EQ(h.num_edges(), g.num_edges()) << name;
  }
}

}  // namespace
}  // namespace c3
