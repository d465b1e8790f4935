// Snapshot subsystem tests: byte-identical query results between a cold
// engine and a snapshot-loaded one for every algorithm, the never-rebuild
// guarantee, refusal of corrupt/truncated/mismatched files with precise
// errors, and concurrent queries over a loaded engine (the tsan surface).
#include "snapshot/snapshot.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "clique/api.hpp"
#include "clique/engine.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "graph/io.hpp"
#include "snapshot/format.hpp"
#include "snapshot/mapped_file.hpp"

namespace c3 {
namespace {

const Algorithm kAllAlgorithms[] = {Algorithm::C3List,   Algorithm::C3ListCD,
                                    Algorithm::Hybrid,   Algorithm::KCList,
                                    Algorithm::ArbCount, Algorithm::BruteForce};

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process directory: ctest runs each TEST_F as its own process, in
    // parallel — a shared path would let one test's TearDown delete files
    // another test is still writing.
    dir_ = std::filesystem::temp_directory_path() /
           ("c3list_snapshot_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Flips one byte of the file at `offset`.
  void corrupt_byte(const std::filesystem::path& path, std::uint64_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
  }

  /// Overwrites the file at `offset` with the bytes of `value`.
  template <typename T>
  void patch(const std::filesystem::path& path, std::uint64_t offset, T value) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&value), sizeof value);
  }

  /// The error message open() throws for `path`, or "" if it doesn't throw.
  std::string open_error(const std::filesystem::path& path,
                         const snapshot::SnapshotOpenOptions& opts = {}) {
    try {
      (void)snapshot::Snapshot::open(path, opts);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  }

  std::filesystem::path dir_;
};

TEST_F(SnapshotTest, RoundTripIdenticalResultsAllAlgorithms) {
  const Graph g = social_like(200, 1600, 0.4, 21);
  for (const Algorithm alg : kAllAlgorithms) {
    SCOPED_TRACE(algorithm_name(alg));
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph cold(g, opts);
    const auto path = dir_ / "roundtrip.c3snap";
    snapshot::write(path, cold);
    const auto snap = snapshot::Snapshot::open(path);
    const PreparedGraph& loaded = snap.engine();

    EXPECT_EQ(loaded.prepare_seconds(), 0.0);
    const int installed = loaded.artifacts_built();

    for (int k = 3; k <= 6; ++k) {
      const CliqueResult a = cold.count(k);
      const CliqueResult b = loaded.count(k);
      EXPECT_EQ(a.count, b.count) << "k=" << k;
      EXPECT_EQ(b.stats.preprocess_seconds, 0.0) << "k=" << k;
    }
    const CliqueSpectrum sa = cold.spectrum();
    const CliqueSpectrum sb = loaded.spectrum();
    EXPECT_EQ(sa.omega, sb.omega);
    ASSERT_EQ(sa.counts.size(), sb.counts.size());
    for (std::size_t i = 0; i < sa.counts.size(); ++i) EXPECT_EQ(sa.counts[i], sb.counts[i]);
    EXPECT_EQ(sb.preprocess_seconds, 0.0);

    EXPECT_EQ(cold.per_vertex_counts(4), loaded.per_vertex_counts(4));
    EXPECT_EQ(cold.per_edge_counts(4), loaded.per_edge_counts(4));
    EXPECT_EQ(cold.max_clique_size(), loaded.max_clique_size());
    EXPECT_EQ(cold.find_clique(3).has_value(), loaded.find_clique(3).has_value());

    // Nothing above was allowed to build anything.
    EXPECT_EQ(loaded.artifacts_built(), installed);
    EXPECT_EQ(loaded.prepare_seconds(), 0.0);
  }
}

TEST_F(SnapshotTest, WriteForcesTheFullQuerySurface) {
  // Even for BruteForce (whose prepare() builds nothing), the snapshot must
  // carry the upper-bound artifact so max-clique queries never prepare.
  const Graph g = erdos_renyi(60, 450, 5);
  CliqueOptions opts;
  opts.algorithm = Algorithm::BruteForce;
  const PreparedGraph cold(g, opts);
  const auto path = dir_ / "brute.c3snap";
  snapshot::write(path, cold);
  const auto info = snapshot::inspect(path);
  EXPECT_TRUE(info.has(snapshot::kArtifactExactDegeneracy));

  const auto snap = snapshot::Snapshot::open(path);
  EXPECT_EQ(snap.engine().max_clique_size(), cold.max_clique_size());
  EXPECT_EQ(snap.engine().prepare_seconds(), 0.0);
}

TEST_F(SnapshotTest, InspectDescribesTheFile) {
  const Graph g = social_like(150, 1100, 0.45, 77);
  CliqueOptions opts;
  opts.algorithm = Algorithm::C3List;
  const PreparedGraph engine(g, opts);
  const auto path = dir_ / "inspect.c3snap";
  snapshot::write(path, engine);

  const snapshot::SnapshotInfo info = snapshot::inspect(path);
  EXPECT_EQ(info.format_version, snapshot::kFormatVersion);
  EXPECT_EQ(info.num_nodes, g.num_nodes());
  EXPECT_EQ(info.num_edges, g.num_edges());
  EXPECT_EQ(info.options.algorithm, Algorithm::C3List);
  EXPECT_TRUE(info.has(snapshot::kArtifactDag));
  EXPECT_TRUE(info.has(snapshot::kArtifactCommunities));
  EXPECT_FALSE(info.has(snapshot::kArtifactEdgeOrder));
  // Graph CSR (4 sections) + DAG out-arcs (3) + communities (2): no
  // in-adjacency and no arc-source table.
  std::vector<std::string> names;
  for (const snapshot::SectionInfo& section : info.sections) names.push_back(section.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "graph.offsets", "graph.adjacency", "graph.edge_ids", "graph.endpoints",
                       "dag.out_offsets", "dag.out_adjacency", "dag.rank_to_original",
                       "communities.offsets", "communities.members"}));
  EXPECT_EQ(info.file_bytes, std::filesystem::file_size(path));
}

TEST_F(SnapshotTest, EmptyAndTinyGraphsRoundTrip) {
  const Graph empty = build_graph(EdgeList{}, 0);
  const Graph tiny = build_graph(EdgeList{{0, 1}, {1, 2}, {0, 2}}, 3);
  for (const Graph* g : {&empty, &tiny}) {
    for (const Algorithm alg : kAllAlgorithms) {
      SCOPED_TRACE(algorithm_name(alg));
      CliqueOptions opts;
      opts.algorithm = alg;
      const PreparedGraph cold(*g, opts);
      const auto path = dir_ / "tiny.c3snap";
      snapshot::write(path, cold);
      const auto snap = snapshot::Snapshot::open(path);
      EXPECT_EQ(snap.graph().num_nodes(), g->num_nodes());
      EXPECT_EQ(snap.engine().count(3).count, cold.count(3).count);
      EXPECT_EQ(snap.engine().max_clique_size(), cold.max_clique_size());
    }
  }
}

TEST_F(SnapshotTest, RejectsGarbageAndTruncatedHeader) {
  const auto garbage = dir_ / "garbage.c3snap";
  std::ofstream(garbage, std::ios::binary) << std::string(4096, 'x');
  EXPECT_NE(open_error(garbage).find("bad magic"), std::string::npos);

  const auto shorty = dir_ / "short.c3snap";
  std::ofstream(shorty, std::ios::binary) << "c3snap";
  EXPECT_NE(open_error(shorty).find("truncated header"), std::string::npos);
}

TEST_F(SnapshotTest, RejectsForeignVersionAndTruncationAndTamper) {
  const Graph g = erdos_renyi(80, 600, 3);
  const PreparedGraph engine(g, {});
  const auto path = dir_ / "valid.c3snap";
  snapshot::write(path, engine);
  ASSERT_EQ(open_error(path), "");  // sanity: the pristine file loads

  // Version: bytes [8, 12) of the header (checked before the checksum, so
  // the message names the version). A file of the retired v1 layout, which
  // also stored the in-adjacency and the arc sources, is refused naming both.
  auto tampered = dir_ / "version.c3snap";
  std::filesystem::copy_file(path, tampered);
  patch(tampered, offsetof(snapshot::SnapshotHeader, format_version), std::uint32_t{1});
  const std::string version_error = open_error(tampered);
  EXPECT_NE(version_error.find("format version mismatch"), std::string::npos) << version_error;
  EXPECT_NE(version_error.find("v1"), std::string::npos) << version_error;
  EXPECT_NE(version_error.find("v" + std::to_string(snapshot::kFormatVersion)), std::string::npos)
      << version_error;

  // Truncation: the header's file_bytes no longer matches.
  tampered = dir_ / "truncated.c3snap";
  std::filesystem::copy_file(path, tampered);
  std::filesystem::resize_file(tampered, std::filesystem::file_size(tampered) - 17);
  EXPECT_NE(open_error(tampered).find("truncated"), std::string::npos);

  // Tampering with the section table breaks the header checksum.
  tampered = dir_ / "table.c3snap";
  std::filesystem::copy_file(path, tampered);
  corrupt_byte(tampered, sizeof(snapshot::SnapshotHeader) + 8);  // first record's offset field
  EXPECT_NE(open_error(tampered).find("header checksum mismatch"), std::string::npos);

  // A final offset one past the end would let the last vertex's adjacency
  // span read beyond its section. With checksums off only the shape check
  // stands between such a patch and that read.
  snapshot::SnapshotOpenOptions trusting;
  trusting.verify_checksums = false;
  const snapshot::SnapshotInfo info = snapshot::inspect(path);
  for (const std::string name : {"graph.offsets", "dag.out_offsets"}) {
    SCOPED_TRACE(name);
    tampered = dir_ / (name + ".c3snap");
    std::filesystem::copy_file(path, tampered);
    const auto section = std::find_if(info.sections.begin(), info.sections.end(),
                                      [&](const auto& s) { return s.name == name; });
    ASSERT_NE(section, info.sections.end());
    const edge_t arcs = name == "graph.offsets" ? 2 * g.num_edges() : g.num_edges();
    patch(tampered, section->offset + section->bytes - sizeof(edge_t), edge_t{arcs + 1});
    const std::string error = open_error(tampered, trusting);
    EXPECT_NE(error.find(name + ": final offset"), std::string::npos) << error;
  }
}

TEST_F(SnapshotTest, RejectsAnInteriorOffsetPastItsSection) {
  // An interior offsets entry patched past the section's total would send
  // that vertex's (or arc's) view beyond its section, e.g. a multi-GB
  // LocalGraph on the first count. With checksums off, open() must refuse
  // it, naming the section. c3List's snapshot stores the graph, the DAG and
  // the communities; c3List-CD's stores the edge order.
  const Graph g = erdos_renyi(80, 600, 3);
  snapshot::SnapshotOpenOptions trusting;
  trusting.verify_checksums = false;
  std::vector<std::string> checked;
  for (const Algorithm alg : {Algorithm::C3List, Algorithm::C3ListCD}) {
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph engine(g, opts);
    engine.prepare();
    const auto path = dir_ / (std::string(algorithm_name(alg)) + ".c3snap");
    snapshot::write(path, engine);
    ASSERT_EQ(open_error(path, trusting), "");
    const snapshot::SnapshotInfo info = snapshot::inspect(path);
    for (const std::string name : {"graph.offsets", "dag.out_offsets", "communities.offsets",
                                   "edge_order.candidate_offsets"}) {
      const auto section = std::find_if(info.sections.begin(), info.sections.end(),
                                        [&](const auto& s) { return s.name == name; });
      if (section == info.sections.end()) continue;
      SCOPED_TRACE(std::string(algorithm_name(alg)) + " " + name);
      const auto tampered = dir_ / (std::string(algorithm_name(alg)) + "." + name + ".c3snap");
      std::filesystem::copy_file(path, tampered);
      const std::uint64_t entry = section->count / 2;  // an interior entry
      patch(tampered, section->offset + entry * sizeof(edge_t), edge_t{1} << 20);
      const std::string error = open_error(tampered, trusting);
      EXPECT_NE(error.find(name + ": offset "), std::string::npos) << error;
      checked.push_back(name);
    }
  }
  std::sort(checked.begin(), checked.end());
  checked.erase(std::unique(checked.begin(), checked.end()), checked.end());
  EXPECT_EQ(checked.size(), 4u);
}

TEST_F(SnapshotTest, RejectsAnEdgeOrderThatIsNotAPermutation) {
  // open() derives c3List-CD's later arcs from edge_order.order and the
  // graph's endpoints, indexing by both. With checksums off, an order that
  // is not a permutation of [0, m) with pos its inverse, or an endpoint past
  // n, must be refused naming the section, not indexed out of bounds.
  const Graph g = erdos_renyi(80, 600, 3);
  CliqueOptions opts;
  opts.algorithm = Algorithm::C3ListCD;
  const PreparedGraph engine(g, opts);
  engine.prepare();
  const auto path = dir_ / "cd.c3snap";
  snapshot::write(path, engine);
  snapshot::SnapshotOpenOptions trusting;
  trusting.verify_checksums = false;
  ASSERT_EQ(open_error(path, trusting), "");
  const snapshot::SnapshotInfo info = snapshot::inspect(path);
  const auto section = [&](const std::string& name) {
    for (const snapshot::SectionInfo& s : info.sections)
      if (s.name == name) return s;
    ADD_FAILURE() << "no section " << name;
    return snapshot::SectionInfo{};
  };
  const auto order = section("edge_order.order");
  const auto pos = section("edge_order.pos");
  const auto endpoints = section("graph.endpoints");
  const edge_t m = g.num_edges();
  const EdgeOrderResult& built = *engine.edge_order_if_built();
  int case_id = 0;
  const auto tampered_error = [&](const snapshot::SectionInfo& target, std::uint64_t offset,
                                  auto value) {
    const auto copy = dir_ / ("tampered" + std::to_string(case_id++) + ".c3snap");
    std::filesystem::copy_file(path, copy);
    patch(copy, target.offset + offset, value);
    return open_error(copy, trusting);
  };

  // An order entry past the edge ids.
  std::string error = tampered_error(order, 7 * sizeof(edge_t), edge_t{m + 5});
  EXPECT_NE(error.find("edge_order.order: entry 7"), std::string::npos) << error;
  // A repeated edge (entry 3 copies entry 4): every entry is below m, but
  // pos cannot be the inverse.
  error = tampered_error(order, 3 * sizeof(edge_t), edge_t{built.order[4]});
  EXPECT_NE(error.find("edge_order.pos: entry"), std::string::npos) << error;
  // A pos entry off by one.
  const edge_t e = built.order[10];
  error = tampered_error(pos, e * sizeof(edge_t), edge_t{11});
  EXPECT_NE(error.find("edge_order.pos: entry " + std::to_string(e)), std::string::npos) << error;
  // An endpoint past the vertices.
  error = tampered_error(endpoints, 5 * sizeof(Edge) + sizeof(node_t), node_t{1} << 20);
  EXPECT_NE(error.find("graph.endpoints: edge 5"), std::string::npos) << error;
}

TEST_F(SnapshotTest, RejectsCorruptSectionPayloadNamingTheSection) {
  const Graph g = erdos_renyi(80, 600, 3);
  const PreparedGraph engine(g, {});
  const auto path = dir_ / "payload.c3snap";
  snapshot::write(path, engine);

  const snapshot::SnapshotInfo info = snapshot::inspect(path);
  const snapshot::SectionInfo& target = info.sections.back();
  corrupt_byte(path, target.offset + target.bytes / 2);
  const std::string error = open_error(path);
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find(target.name), std::string::npos) << error;

  // The same file loads with verification off (the trusted-store fast path) —
  // the corruption is in a payload, not the header.
  snapshot::SnapshotOpenOptions trusting;
  trusting.verify_checksums = false;
  EXPECT_NO_THROW((void)snapshot::Snapshot::open(path, trusting));
}

TEST_F(SnapshotTest, RefusesFingerprintMismatchAndAppliesRuntimeFlags) {
  const Graph g = erdos_renyi(70, 520, 13);
  CliqueOptions opts;
  opts.algorithm = Algorithm::C3List;
  const PreparedGraph engine(g, opts);
  const auto path = dir_ / "fingerprint.c3snap";
  snapshot::write(path, engine);

  CliqueOptions wrong = opts;
  wrong.algorithm = Algorithm::KCList;
  EXPECT_THROW((void)snapshot::Snapshot::open(path, wrong), std::runtime_error);
  wrong = opts;
  wrong.order_seed = 999;
  EXPECT_THROW((void)snapshot::Snapshot::open(path, wrong), std::runtime_error);
  wrong = opts;
  wrong.eps = 0.25;
  EXPECT_THROW((void)snapshot::Snapshot::open(path, wrong), std::runtime_error);

  // Runtime-only knobs are not part of the fingerprint; they apply on top.
  CliqueOptions runtime = opts;
  runtime.distance_pruning = false;
  const auto snap = snapshot::Snapshot::open(path, runtime);
  EXPECT_FALSE(snap.engine().options().distance_pruning);
  EXPECT_EQ(snap.engine().count(4).count, engine.count(4).count);
}

TEST_F(SnapshotTest, ReadGraphAnyDetachesTheGraph) {
  const Graph g = erdos_renyi(90, 500, 33);
  const PreparedGraph engine(g, {});
  const auto path = dir_ / "any.c3snap";
  snapshot::write(path, engine);

  // The snapshot (and its mapping) dies inside read_graph_any; the returned
  // graph must own its memory.
  const Graph h = read_graph_any(path);
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (node_t v = 0; v < g.num_nodes(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = h.neighbors(v);
    ASSERT_EQ(std::vector<node_t>(a.begin(), a.end()), std::vector<node_t>(b.begin(), b.end()));
  }
}

TEST_F(SnapshotTest, ConcurrentQueriesOnLoadedEngine) {
  const Graph g = social_like(300, 2400, 0.4, 7);
  CliqueOptions opts;
  opts.algorithm = Algorithm::C3List;
  const PreparedGraph cold(g, opts);
  const auto path = dir_ / "concurrent.c3snap";
  snapshot::write(path, cold);
  const auto snap = snapshot::Snapshot::open(path);
  const PreparedGraph& loaded = snap.engine();

  count_t expected[4];
  for (int k = 3; k <= 6; ++k) expected[k - 3] = cold.count(k).count;
  const node_t omega = cold.max_clique_size();
  const int installed = loaded.artifacts_built();

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        const int k = 3 + (t + rep) % 4;
        const CliqueResult r = loaded.count(k);
        if (r.count != expected[k - 3]) failures[t] = "count mismatch";
        if (r.stats.preprocess_seconds != 0.0) failures[t] = "nonzero preprocess";
        if (t % 2 == 0 && loaded.max_clique_size() != omega) failures[t] = "omega mismatch";
        if (!loaded.has_clique(3)) failures[t] = "missing 3-clique";
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  EXPECT_EQ(loaded.artifacts_built(), installed);
  EXPECT_EQ(loaded.prepare_seconds(), 0.0);
}

TEST_F(SnapshotTest, HeapFallbackReadsIdenticalBytesAndReportsNoMapping) {
  // MappedFile::read_heap is the path platforms without mmap always take;
  // force it directly and check the contract: same bytes, is_mapped() false,
  // and the page-granular warm-up hints are explicit no-ops (prefault does
  // nothing, lock_memory reports false instead of mlock-ing a heap pointer).
  const auto path = dir_ / "heap.bin";
  std::string payload(70'000, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 131) ^ (i >> 7));
  }
  std::ofstream(path, std::ios::binary) << payload;

  const snapshot::MappedFile mapped = snapshot::MappedFile::map_readonly(path);
  const snapshot::MappedFile heap = snapshot::MappedFile::read_heap(path);
  EXPECT_FALSE(heap.is_mapped());
  ASSERT_EQ(heap.size(), payload.size());
  ASSERT_EQ(heap.size(), mapped.size());
  EXPECT_EQ(std::memcmp(heap.data(), payload.data(), payload.size()), 0);
  EXPECT_EQ(std::memcmp(heap.data(), mapped.data(), mapped.size()), 0);

  heap.prefault();  // must be a harmless no-op
  EXPECT_FALSE(heap.lock_memory());

  // Empty files are fine too (data may be null, size 0, hints still safe).
  const auto empty = dir_ / "empty.bin";
  std::ofstream(empty, std::ios::binary).flush();
  const snapshot::MappedFile none = snapshot::MappedFile::read_heap(empty);
  EXPECT_EQ(none.size(), 0u);
  EXPECT_FALSE(none.is_mapped());
  none.prefault();
  EXPECT_FALSE(none.lock_memory());
}

TEST_F(SnapshotTest, ForcedHeapFallbackServesIdenticalAnswers) {
  // A snapshot opened through the heap fallback must behave exactly like the
  // mmap path — except memory_locked(), which must report false even when
  // lock_memory was requested (the old code fell through to mlock on a heap
  // pointer, whose success/failure was meaningless).
  const Graph g = social_like(150, 1200, 0.4, 17);
  const PreparedGraph cold(g, {});
  const auto path = dir_ / "heap.c3snap";
  snapshot::write(path, cold);

  snapshot::SnapshotOpenOptions open;
  open.force_heap_fallback = true;
  open.prefault = true;      // no-op on the heap path, must not throw
  open.lock_memory = true;   // must be reported as not locked
  const auto snap = snapshot::Snapshot::open(path, open);
  EXPECT_FALSE(snap.memory_locked());
  EXPECT_EQ(snap.engine().count(4).count, cold.count(4).count);
  EXPECT_EQ(snap.engine().max_clique_size(), cold.max_clique_size());
  EXPECT_EQ(snap.engine().prepare_seconds(), 0.0);

  // Checksums still verify (and still catch corruption) on the heap path.
  auto tampered = dir_ / "heap_tampered.c3snap";
  std::filesystem::copy_file(path, tampered);
  const snapshot::SnapshotInfo info = snapshot::inspect(tampered);
  const snapshot::SectionInfo& target = info.sections.back();
  corrupt_byte(tampered, target.offset + target.bytes / 2);
  snapshot::SnapshotOpenOptions strict;
  strict.force_heap_fallback = true;
  EXPECT_THROW((void)snapshot::Snapshot::open(tampered, strict), std::runtime_error);
}

TEST_F(SnapshotTest, WarmupHintsAreBestEffortAndChangeNoAnswer) {
  const Graph g = social_like(150, 1200, 0.4, 17);
  const PreparedGraph cold(g, {});
  const auto path = dir_ / "warmup.c3snap";
  snapshot::write(path, cold);

  snapshot::SnapshotOpenOptions open;
  open.prefault = true;
  open.lock_memory = true;
  const auto snap = snapshot::Snapshot::open(path, open);
  // mlock is best-effort (RLIMIT_MEMLOCK may refuse); the accessor reports
  // the outcome, and either way the engine serves identical answers.
  (void)snap.memory_locked();
  EXPECT_EQ(snap.engine().count(4).count, cold.count(4).count);
  EXPECT_EQ(snap.engine().prepare_seconds(), 0.0);

  // Hints off: memory_locked() must report false.
  const auto plain = snapshot::Snapshot::open(path);
  EXPECT_FALSE(plain.memory_locked());
  EXPECT_EQ(plain.engine().count(4).count, cold.count(4).count);
}

}  // namespace
}  // namespace c3
