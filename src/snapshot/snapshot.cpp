#include "snapshot/snapshot.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "clique/api.hpp"
#include "graph/digraph.hpp"
#include "obs/metrics.hpp"
#include "order/community_degeneracy.hpp"
#include "parallel/parallel.hpp"
#include "snapshot/mapped_file.hpp"
#include "triangle/communities.hpp"
#include "util/array_store.hpp"
#include "util/timer.hpp"

namespace c3::snapshot {
namespace {

[[noreturn]] void fail(const std::filesystem::path& path, const std::string& what) {
  throw std::runtime_error("c3::snapshot: " + what + ": " + path.string());
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string u64s(std::uint64_t v) { return std::to_string(v); }

/// Element size each section kind must carry (the ABI the header's
/// node_bytes/edge_bytes fields pin down).
std::uint32_t expected_elem_bytes(SectionKind kind) {
  switch (kind) {
    case SectionKind::GraphOffsets:
    case SectionKind::GraphEdgeIds:
    case SectionKind::DagOutOffsets:
    case SectionKind::CommOffsets:
    case SectionKind::EdgeOrderOrder:
    case SectionKind::EdgeOrderPos:
    case SectionKind::EdgeOrderCandOffsets:
      return sizeof(edge_t);
    case SectionKind::GraphEndpoints:
      return sizeof(Edge);
    case SectionKind::GraphAdjacency:
    case SectionKind::DagOutAdjacency:
    case SectionKind::DagRankToOriginal:
    case SectionKind::CommMembers:
    case SectionKind::EdgeOrderCandMembers:
      return sizeof(node_t);
  }
  return 0;
}

// ------------------------------------------------------------------ writing

struct PendingSection {
  SectionRecord rec;
  const void* payload = nullptr;
};

template <typename T>
void add_section(std::vector<PendingSection>& out, SectionKind kind, std::span<const T> data) {
  PendingSection s;
  s.rec.kind = static_cast<std::uint32_t>(kind);
  s.rec.elem_bytes = sizeof(T);
  s.rec.count = data.size();
  s.rec.checksum = checksum64(data.data(), data.size_bytes());
  s.payload = data.data();
  out.push_back(s);
}

void write_padding(std::ofstream& out, std::uint64_t bytes) {
  static constexpr char zeros[kSectionAlign] = {};
  while (bytes > 0) {
    const std::uint64_t chunk = bytes < kSectionAlign ? bytes : kSectionAlign;
    out.write(zeros, static_cast<std::streamsize>(chunk));
    bytes -= chunk;
  }
}

// ------------------------------------------------------------------ reading

/// Header + section table, validated and copied out of the mapping (the
/// copies sidestep any alignment concern; sections stay in place).
struct Layout {
  SnapshotHeader header;
  std::vector<SectionRecord> table;
};

template <typename T>
std::span<const T> section_span(const MappedFile& map, const SectionRecord& rec) {
  return {reinterpret_cast<const T*>(map.data() + rec.offset),
          static_cast<std::size_t>(rec.count)};
}

Layout validate(const MappedFile& map, const std::filesystem::path& path,
                bool verify_payload_checksums) {
  if (map.size() < sizeof(SnapshotHeader)) {
    fail(path, "truncated header: file holds " + u64s(map.size()) + " bytes, a snapshot needs " +
                   u64s(sizeof(SnapshotHeader)) + " before offset 0 is readable");
  }
  Layout lay;
  std::memcpy(&lay.header, map.data(), sizeof lay.header);
  const SnapshotHeader& h = lay.header;
  if (std::memcmp(h.magic, kMagic, sizeof kMagic) != 0) {
    fail(path, "bad magic at offset 0 (not a c3 snapshot)");
  }
  if (h.format_version != kFormatVersion) {
    fail(path, "format version mismatch: file has v" + u64s(h.format_version) +
                   ", this build reads v" + u64s(kFormatVersion));
  }
  if (h.artifact_schema != kArtifactSchema) {
    fail(path, "artifact schema mismatch: file has schema " + u64s(h.artifact_schema) +
                   ", this build produces schema " + u64s(kArtifactSchema) +
                   " — re-run `c3tool prepare`");
  }
  if (h.header_bytes != sizeof(SnapshotHeader)) {
    fail(path, "header size mismatch at offset 16: file says " + u64s(h.header_bytes) +
                   ", expected " + u64s(sizeof(SnapshotHeader)));
  }
  if (h.node_bytes != sizeof(node_t) || h.edge_bytes != sizeof(edge_t)) {
    fail(path, "id-width mismatch: snapshot written with " + u64s(h.node_bytes) + "-byte node / " +
                   u64s(h.edge_bytes) + "-byte edge ids, this build uses " +
                   u64s(sizeof(node_t)) + "/" + u64s(sizeof(edge_t)));
  }
  if (h.file_bytes != map.size()) {
    fail(path, "truncated or padded file: header records " + u64s(h.file_bytes) +
                   " bytes, file holds " + u64s(map.size()));
  }
  const std::uint64_t table_offset = sizeof(SnapshotHeader);
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(h.section_count) * sizeof(SectionRecord);
  if (table_bytes > map.size() - table_offset) {
    fail(path, "section table out of bounds: " + u64s(h.section_count) + " records at offset " +
                   u64s(table_offset) + " exceed the " + u64s(map.size()) + "-byte file");
  }
  lay.table.resize(h.section_count);
  if (h.section_count > 0) {
    std::memcpy(lay.table.data(), map.data() + table_offset, table_bytes);
  }

  SnapshotHeader unsummed = h;
  unsummed.header_checksum = 0;
  std::uint64_t hc = checksum64(&unsummed, sizeof unsummed);
  hc = checksum64(lay.table.data(), table_bytes, hc);
  if (hc != h.header_checksum) {
    fail(path, "header checksum mismatch (expected " + hex64(h.header_checksum) + ", computed " +
                   hex64(hc) + ")");
  }

  std::uint32_t seen = 0;
  for (std::size_t i = 0; i < lay.table.size(); ++i) {
    const SectionRecord& rec = lay.table[i];
    if (rec.kind > static_cast<std::uint32_t>(SectionKind::EdgeOrderCandMembers)) {
      fail(path, "unknown section kind " + u64s(rec.kind) + " at table index " + u64s(i));
    }
    const auto kind = static_cast<SectionKind>(rec.kind);
    const std::string name = section_name(kind);
    if ((seen & (1u << rec.kind)) != 0) fail(path, "duplicate section " + name);
    seen |= 1u << rec.kind;
    if (rec.elem_bytes != expected_elem_bytes(kind)) {
      fail(path, "section " + name + ": element size " + u64s(rec.elem_bytes) + ", expected " +
                     u64s(expected_elem_bytes(kind)));
    }
    if (rec.offset % kSectionAlign != 0) {
      fail(path, "section " + name + ": offset " + u64s(rec.offset) + " is not " +
                     u64s(kSectionAlign) + "-byte aligned");
    }
    if (rec.offset > map.size() ||
        rec.count > (map.size() - rec.offset) / (rec.elem_bytes == 0 ? 1 : rec.elem_bytes)) {
      fail(path, "section " + name + " out of bounds: offset " + u64s(rec.offset) + " + " +
                     u64s(rec.count) + " x " + u64s(rec.elem_bytes) + " bytes exceeds the " +
                     u64s(map.size()) + "-byte file");
    }
  }

  if (verify_payload_checksums) {
    // Bounds are validated above, so the payload scans are safe — and
    // independent, so they run one section per worker. Open cost is
    // mmap + (the largest section / scan bandwidth), not O(file) serial.
    std::vector<std::string> errors(lay.table.size());
    parallel_for_dynamic(
        0, lay.table.size(),
        [&](std::size_t i) {
          const SectionRecord& rec = lay.table[i];
          const std::uint64_t got =
              checksum64(map.data() + rec.offset, rec.count * rec.elem_bytes);
          if (got != rec.checksum) {
            errors[i] = "section " +
                        std::string(section_name(static_cast<SectionKind>(rec.kind))) +
                        " at offset " + u64s(rec.offset) + ": checksum mismatch (recorded " +
                        hex64(rec.checksum) + ", computed " + hex64(got) + ")";
          }
        },
        /*grain=*/1);
    for (const std::string& error : errors) {
      if (!error.empty()) fail(path, error);
    }
  }
  return lay;
}

/// The section of `kind` with its element count checked against what the
/// header's graph shape dictates.
const SectionRecord& require_section(const Layout& lay, const std::filesystem::path& path,
                                     SectionKind kind, std::uint64_t expected_count,
                                     bool allow_empty_when_zero = false) {
  for (const SectionRecord& rec : lay.table) {
    if (rec.kind != static_cast<std::uint32_t>(kind)) continue;
    if (rec.count == expected_count) return rec;
    if (allow_empty_when_zero && rec.count == 0) return rec;
    fail(path, std::string("section ") + section_name(kind) + ": " + u64s(rec.count) +
                   " elements, the header's graph shape dictates " + u64s(expected_count));
  }
  fail(path, std::string("missing section ") + section_name(kind));
}

/// Refuses an offsets section that would send a view past its section: the
/// adjacency and member views read [offsets[i], offsets[i + 1]) for every i,
/// so every entry must be at most the next one and the final one must be
/// what the header's graph shape (or, for communities and edge-order
/// candidates, their members section) dictates. O(n), so it stands even with
/// checksums off.
void require_offsets(const MappedFile& map, const std::filesystem::path& path,
                     const SectionRecord& offsets, std::uint64_t n, std::uint64_t expected,
                     const char* shape) {
  if (offsets.count != n + 1 || n == 0) return;
  const auto entries = section_span<edge_t>(map, offsets);
  const std::string name = section_name(static_cast<SectionKind>(offsets.kind));
  if (entries[n] != expected) {
    fail(path, name + ": final offset " + u64s(entries[n]) + " disagrees with the header's " +
                   shape + " = " + u64s(expected));
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    if (entries[i] > entries[i + 1]) {
      fail(path, name + ": offset " + u64s(i) + " = " + u64s(entries[i]) +
                     " exceeds the next entry " + u64s(entries[i + 1]));
    }
  }
}

/// The edge order's later arcs are derived at open from `order` and the
/// graph's endpoints, and index by both, so a file that slipped past (or
/// skipped) the checksums must carry an `order` that is a permutation of
/// [0, m) with `pos` its inverse, and endpoints below n. O(m).
void require_edge_order(const std::filesystem::path& path, std::span<const edge_t> order,
                        std::span<const edge_t> pos, std::span<const Edge> endpoints,
                        std::uint64_t n) {
  const std::uint64_t m = order.size();
  for (std::uint64_t i = 0; i < m; ++i) {
    const edge_t e = order[i];
    if (e >= m) {
      fail(path, "edge_order.order: entry " + u64s(i) + " = " + u64s(e) +
                     " is not an edge id below m = " + u64s(m));
    }
    if (pos[e] != i) {
      fail(path, "edge_order.pos: entry " + u64s(e) + " = " + u64s(pos[e]) +
                     ", but edge_order.order lists edge " + u64s(e) + " at " + u64s(i) +
                     " (not a permutation and its inverse)");
    }
  }
  for (std::uint64_t e = 0; e < m; ++e) {
    if (endpoints[e].u >= n || endpoints[e].v >= n) {
      fail(path, "graph.endpoints: edge " + u64s(e) + " has an endpoint not below n = " +
                     u64s(n));
    }
  }
}

CliqueOptions options_from_header(const SnapshotHeader& h, const std::filesystem::path& path) {
  if (h.algorithm > static_cast<std::uint32_t>(Algorithm::BruteForce) ||
      h.vertex_order > static_cast<std::uint32_t>(VertexOrderKind::ById) ||
      h.edge_order_kind > static_cast<std::uint32_t>(EdgeOrderKind::ApproxCommunityDegeneracy)) {
    fail(path, "corrupt options fingerprint (algorithm " + u64s(h.algorithm) + ", vertex order " +
                   u64s(h.vertex_order) + ", edge order " + u64s(h.edge_order_kind) + ")");
  }
  CliqueOptions opts;
  opts.algorithm = static_cast<Algorithm>(h.algorithm);
  opts.vertex_order = static_cast<VertexOrderKind>(h.vertex_order);
  opts.edge_order = static_cast<EdgeOrderKind>(h.edge_order_kind);
  std::memcpy(&opts.eps, &h.eps_bits, sizeof opts.eps);
  opts.order_seed = h.order_seed;
  opts.distance_pruning = (h.option_flags & kOptionDistancePruning) != 0;
  opts.triangle_growth = (h.option_flags & kOptionTriangleGrowth) != 0;
  return opts;
}

SnapshotInfo info_from_layout(const Layout& lay, const std::filesystem::path& path) {
  SnapshotInfo info;
  info.format_version = lay.header.format_version;
  info.artifact_schema = lay.header.artifact_schema;
  info.file_bytes = lay.header.file_bytes;
  info.num_nodes = lay.header.num_nodes;
  info.num_edges = lay.header.num_edges;
  info.options = options_from_header(lay.header, path);
  info.artifact_mask = lay.header.artifact_mask;
  for (const SectionRecord& rec : lay.table) {
    info.sections.push_back({section_name(static_cast<SectionKind>(rec.kind)), rec.offset,
                             rec.count * rec.elem_bytes, rec.count, rec.checksum});
  }
  return info;
}

}  // namespace

void write(const std::filesystem::path& path, const PreparedGraph& engine) {
  // Force the full query surface: the algorithm's dispatch artifacts plus
  // whatever clique_number_upper_bound (spectrum / max-clique) needs, so a
  // loaded engine never prepares anything.
  engine.prepare();
  const Graph& g = engine.graph();
  if (g.num_nodes() > 0 && g.num_edges() > 0) (void)engine.clique_number_upper_bound();
  const CliqueOptions& opts = engine.options();

  SnapshotHeader h;
  std::memcpy(h.magic, kMagic, sizeof kMagic);
  h.format_version = kFormatVersion;
  h.artifact_schema = kArtifactSchema;
  h.header_bytes = sizeof(SnapshotHeader);
  h.node_bytes = sizeof(node_t);
  h.edge_bytes = sizeof(edge_t);
  h.algorithm = static_cast<std::uint32_t>(opts.algorithm);
  h.vertex_order = static_cast<std::uint32_t>(opts.vertex_order);
  h.edge_order_kind = static_cast<std::uint32_t>(opts.edge_order);
  h.option_flags = (opts.distance_pruning ? kOptionDistancePruning : 0u) |
                   (opts.triangle_growth ? kOptionTriangleGrowth : 0u);
  std::memcpy(&h.eps_bits, &opts.eps, sizeof h.eps_bits);
  h.order_seed = opts.order_seed;
  h.num_nodes = g.num_nodes();
  h.num_edges = g.num_edges();

  std::vector<PendingSection> sections;
  add_section(sections, SectionKind::GraphOffsets, g.raw_offsets());
  add_section(sections, SectionKind::GraphAdjacency, g.raw_adjacency());
  add_section(sections, SectionKind::GraphEdgeIds, g.raw_edge_ids());
  add_section(sections, SectionKind::GraphEndpoints, g.endpoints());

  if (const Digraph* dag = engine.dag_if_built()) {
    h.artifact_mask |= kArtifactDag;
    add_section(sections, SectionKind::DagOutOffsets, dag->raw_out_offsets());
    add_section(sections, SectionKind::DagOutAdjacency, dag->raw_out_adjacency());
    add_section(sections, SectionKind::DagRankToOriginal, dag->rank_to_original());
  }
  if (const EdgeCommunities* comms = engine.communities_if_built()) {
    h.artifact_mask |= kArtifactCommunities;
    add_section(sections, SectionKind::CommOffsets, comms->raw_offsets());
    add_section(sections, SectionKind::CommMembers, comms->raw_members());
  }
  if (const EdgeOrderResult* eo = engine.edge_order_if_built()) {
    h.artifact_mask |= kArtifactEdgeOrder;
    h.edge_order_sigma = eo->sigma;
    h.edge_order_rounds = eo->rounds;
    add_section(sections, SectionKind::EdgeOrderOrder, eo->order.span());
    add_section(sections, SectionKind::EdgeOrderPos, eo->pos.span());
    add_section(sections, SectionKind::EdgeOrderCandOffsets, eo->candidate_offsets.span());
    add_section(sections, SectionKind::EdgeOrderCandMembers, eo->candidate_members.span());
  }
  if (const std::optional<node_t> s = engine.exact_degeneracy_if_built()) {
    h.artifact_mask |= kArtifactExactDegeneracy;
    h.exact_degeneracy = *s;
  }

  h.section_count = static_cast<std::uint32_t>(sections.size());
  std::uint64_t cursor = align_up(
      sizeof(SnapshotHeader) + sections.size() * sizeof(SectionRecord), kSectionAlign);
  for (PendingSection& s : sections) {
    s.rec.offset = cursor;
    cursor = align_up(cursor + s.rec.count * s.rec.elem_bytes, kSectionAlign);
  }
  h.file_bytes = cursor;

  std::vector<SectionRecord> table;
  table.reserve(sections.size());
  for (const PendingSection& s : sections) table.push_back(s.rec);
  h.header_checksum = 0;
  std::uint64_t hc = checksum64(&h, sizeof h);
  hc = checksum64(table.data(), table.size() * sizeof(SectionRecord), hc);
  h.header_checksum = hc;

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail(path, "cannot open for writing");
  out.write(reinterpret_cast<const char*>(&h), sizeof h);
  out.write(reinterpret_cast<const char*>(table.data()),
            static_cast<std::streamsize>(table.size() * sizeof(SectionRecord)));
  std::uint64_t written = sizeof(SnapshotHeader) + table.size() * sizeof(SectionRecord);
  for (const PendingSection& s : sections) {
    write_padding(out, s.rec.offset - written);
    const std::uint64_t bytes = s.rec.count * s.rec.elem_bytes;
    out.write(reinterpret_cast<const char*>(s.payload), static_cast<std::streamsize>(bytes));
    written = s.rec.offset + bytes;
  }
  write_padding(out, h.file_bytes - written);
  if (!out) fail(path, "write error");
}

SnapshotInfo inspect(const std::filesystem::path& path) {
  const MappedFile map = MappedFile::map_readonly(path);
  const Layout lay = validate(map, path, /*verify_payload_checksums=*/false);
  return info_from_layout(lay, path);
}

// ------------------------------------------------------------------- open

struct Snapshot::Impl {
  MappedFile map;
  SnapshotInfo info;
  Graph graph;                          // views over `map`
  std::optional<PreparedGraph> engine;  // views over `map`, refs `graph`
  bool memory_locked = false;
};

Snapshot::Snapshot() : impl_(std::make_unique<Impl>()) {}
Snapshot::Snapshot(Snapshot&&) noexcept = default;
Snapshot& Snapshot::operator=(Snapshot&&) noexcept = default;
Snapshot::~Snapshot() = default;

const Graph& Snapshot::graph() const noexcept { return impl_->graph; }
const PreparedGraph& Snapshot::engine() const noexcept { return *impl_->engine; }
PreparedGraph& Snapshot::engine() noexcept { return *impl_->engine; }
const SnapshotInfo& Snapshot::info() const noexcept { return impl_->info; }
bool Snapshot::memory_locked() const noexcept { return impl_->memory_locked; }

namespace {

template <typename T>
ArrayStore<T> view_of(const MappedFile& map, const SectionRecord& rec) {
  return ArrayStore<T>::view(section_span<T>(map, rec));
}

/// The artifact-content fingerprint: refuse when any field that determines
/// what the preparation *built* differs from what the caller expects.
void check_fingerprint(const std::filesystem::path& path, const CliqueOptions& stored,
                       const CliqueOptions& expected) {
  if (stored.algorithm != expected.algorithm) {
    fail(path, std::string("fingerprint mismatch: snapshot prepared for algorithm ") +
                   algorithm_name(stored.algorithm) + ", expected " +
                   algorithm_name(expected.algorithm));
  }
  if (stored.vertex_order != expected.vertex_order) {
    fail(path, "fingerprint mismatch: snapshot vertex order kind " +
                   u64s(static_cast<std::uint32_t>(stored.vertex_order)) + ", expected " +
                   u64s(static_cast<std::uint32_t>(expected.vertex_order)));
  }
  if (stored.edge_order != expected.edge_order) {
    fail(path, "fingerprint mismatch: snapshot edge order kind " +
                   u64s(static_cast<std::uint32_t>(stored.edge_order)) + ", expected " +
                   u64s(static_cast<std::uint32_t>(expected.edge_order)));
  }
  std::uint64_t stored_eps = 0, expected_eps = 0;
  std::memcpy(&stored_eps, &stored.eps, sizeof stored_eps);
  std::memcpy(&expected_eps, &expected.eps, sizeof expected_eps);
  if (stored_eps != expected_eps) {
    fail(path, "fingerprint mismatch: snapshot eps " + std::to_string(stored.eps) +
                   ", expected " + std::to_string(expected.eps));
  }
  if (stored.order_seed != expected.order_seed) {
    fail(path, "fingerprint mismatch: snapshot order seed " + u64s(stored.order_seed) +
                   ", expected " + u64s(expected.order_seed));
  }
}

}  // namespace

Snapshot Snapshot::open_with(const std::filesystem::path& path, const CliqueOptions* expected,
                             const SnapshotOpenOptions& open_opts) {
  const WallTimer open_timer;
  Snapshot snap;
  Impl& impl = *snap.impl_;
  impl.map = open_opts.force_heap_fallback ? MappedFile::read_heap(path)
                                           : MappedFile::map_readonly(path);
  // Read-ahead before validation: the checksum scan (when on) is the first
  // beneficiary of the whole file streaming in.
  if (open_opts.prefault) impl.map.prefault();
  const WallTimer validate_timer;
  const Layout lay = validate(impl.map, path, open_opts.verify_checksums);
  if (obs::enabled()) {
    static obs::Histogram& validate_hist =
        obs::Registry::global().histogram("c3_snapshot_validate_seconds");
    validate_hist.observe(validate_timer.seconds());
  }
  // Pin only a validated mapping — garbage should be refused, not locked.
  if (open_opts.lock_memory) impl.memory_locked = impl.map.lock_memory();
  impl.info = info_from_layout(lay, path);
  const SnapshotHeader& h = lay.header;
  const std::uint64_t n = h.num_nodes;
  const std::uint64_t m = h.num_edges;

  CliqueOptions opts = impl.info.options;
  if (expected != nullptr) {
    check_fingerprint(path, opts, *expected);
    // Runtime-only knobs follow the caller; they change search behavior, not
    // the prepared artifacts.
    opts.distance_pruning = expected->distance_pruning;
    opts.triangle_growth = expected->triangle_growth;
    impl.info.options = opts;
  }

  // Graph sections are mandatory. An empty graph may legitimately have an
  // empty offsets array (a default-constructed Graph round-trips).
  const SectionRecord& g_off =
      require_section(lay, path, SectionKind::GraphOffsets, n + 1, n == 0);
  const SectionRecord& g_adj = require_section(lay, path, SectionKind::GraphAdjacency, 2 * m);
  const SectionRecord& g_ids = require_section(lay, path, SectionKind::GraphEdgeIds, 2 * m);
  const SectionRecord& g_end = require_section(lay, path, SectionKind::GraphEndpoints, m);
  require_offsets(impl.map, path, g_off, n, 2 * m, "2m");
  impl.graph = Graph::from_parts(view_of<edge_t>(impl.map, g_off), view_of<node_t>(impl.map, g_adj),
                                 view_of<edge_t>(impl.map, g_ids), view_of<Edge>(impl.map, g_end));

  PreparedArtifacts arts;
  if ((h.artifact_mask & kArtifactDag) != 0) {
    const SectionRecord& oo = require_section(lay, path, SectionKind::DagOutOffsets, n + 1, n == 0);
    const SectionRecord& oa = require_section(lay, path, SectionKind::DagOutAdjacency, m);
    require_offsets(impl.map, path, oo, n, m, "m");
    const SectionRecord& ro = require_section(lay, path, SectionKind::DagRankToOriginal, n);
    arts.dag = Digraph::from_parts(view_of<edge_t>(impl.map, oo), view_of<node_t>(impl.map, oa),
                                   view_of<node_t>(impl.map, ro));
  }
  if ((h.artifact_mask & kArtifactCommunities) != 0) {
    const SectionRecord& co = require_section(lay, path, SectionKind::CommOffsets, m + 1);
    const auto offsets = section_span<edge_t>(impl.map, co);
    const std::uint64_t triangles = m > 0 ? offsets[m] : 0;
    const SectionRecord& cm = require_section(lay, path, SectionKind::CommMembers, triangles);
    require_offsets(impl.map, path, co, m, triangles, "members count");
    arts.communities =
        EdgeCommunities::from_parts(view_of<edge_t>(impl.map, co), view_of<node_t>(impl.map, cm));
  }
  if ((h.artifact_mask & kArtifactEdgeOrder) != 0) {
    const SectionRecord& eo = require_section(lay, path, SectionKind::EdgeOrderOrder, m);
    const SectionRecord& ep = require_section(lay, path, SectionKind::EdgeOrderPos, m);
    const SectionRecord& ec =
        require_section(lay, path, SectionKind::EdgeOrderCandOffsets, m + 1);
    const auto cand_offsets = section_span<edge_t>(impl.map, ec);
    const std::uint64_t cand_total = m > 0 ? cand_offsets[m] : 0;
    const SectionRecord& em =
        require_section(lay, path, SectionKind::EdgeOrderCandMembers, cand_total);
    require_offsets(impl.map, path, ec, m, cand_total, "members count");
    EdgeOrderResult order;
    order.order = view_of<edge_t>(impl.map, eo);
    order.pos = view_of<edge_t>(impl.map, ep);
    order.candidate_offsets = view_of<edge_t>(impl.map, ec);
    order.candidate_members = view_of<node_t>(impl.map, em);
    order.sigma = h.edge_order_sigma;
    order.rounds = h.edge_order_rounds;
    require_edge_order(path, order.order.span(), order.pos.span(), impl.graph.endpoints(), n);
    build_later_arcs(impl.graph, order);
    arts.edge_order = std::move(order);
  }
  if ((h.artifact_mask & kArtifactExactDegeneracy) != 0) {
    arts.exact_degeneracy = h.exact_degeneracy;
  }

  impl.engine.emplace(impl.graph, opts, std::move(arts));
  if (obs::enabled()) {
    static obs::Counter& opens = obs::Registry::global().counter("c3_snapshot_opens_total");
    static obs::Histogram& open_hist =
        obs::Registry::global().histogram("c3_snapshot_open_seconds");
    opens.add();
    open_hist.observe(open_timer.seconds());
  }
  return snap;
}

Snapshot Snapshot::open(const std::filesystem::path& path, const SnapshotOpenOptions& opts) {
  return open_with(path, nullptr, opts);
}

Snapshot Snapshot::open(const std::filesystem::path& path, const CliqueOptions& expected,
                        const SnapshotOpenOptions& opts) {
  return open_with(path, &expected, opts);
}

}  // namespace c3::snapshot
