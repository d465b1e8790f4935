// CliqueService — a catalog of named prepared graphs behind one query
// surface; the object a server embeds.
//
// A serving process rarely hosts one graph: it hosts a catalog — some graphs
// built in-process, most mmap-loaded from .c3snap snapshots prepared
// offline — and routes each incoming Query (query.hpp) to the right engine
// by graph id:
//
//   CliqueService service;
//   service.add_graph("social", std::move(g));             // in-memory
//   service.add_snapshot("web", "web.c3snap");             // lazily opened
//   Answer a = service.run("web", parse_query("count 7"));
//
// Snapshot entries are opened lazily on first use (latched, exactly once, so
// racing queries wait rather than double-map) and hold the mapping for the
// service's lifetime; registering costs only a path. add_graph takes
// ownership of the Graph and constructs its engine immediately (preparation
// itself stays lazy inside PreparedGraph).
//
// Thread-safety: run()/engine()/prepare() may be called from any number of
// threads concurrently — the catalog is read under a shared lock and every
// engine is itself reentrant. Registration (add_graph / add_snapshot) takes
// the exclusive lock and may interleave with queries to *other* graphs;
// registered entries are never removed or replaced, so handed-out engine
// references stay valid for the service's lifetime. Duplicate ids and
// lookups of unknown ids throw std::invalid_argument naming the id.
#pragma once

#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "clique/common.hpp"
#include "clique/engine.hpp"
#include "clique/query.hpp"
#include "graph/graph.hpp"
#include "snapshot/snapshot.hpp"

namespace c3 {

namespace obs {
class TraceContext;
}

/// One catalog row (inspection/tooling output).
struct ServiceGraphInfo {
  std::string id;
  bool from_snapshot = false;
  bool opened = false;  ///< engine constructed (always true for in-memory)
  /// Graph shape; 0/0 for a snapshot entry not yet opened (the shape is in
  /// the file, not the catalog).
  node_t num_nodes = 0;
  edge_t num_edges = 0;
};

class CliqueService {
 public:
  CliqueService();
  ~CliqueService();
  CliqueService(const CliqueService&) = delete;
  CliqueService& operator=(const CliqueService&) = delete;

  /// Registers an in-memory graph under `id`; the service takes ownership
  /// and constructs its engine immediately (artifacts still build lazily).
  void add_graph(std::string id, Graph graph, const CliqueOptions& opts = {});

  /// Registers a snapshot-backed graph under `id`. The file is not touched
  /// until the first query (or prepare()) for this id; open failures —
  /// missing file, corrupt snapshot, fingerprint mismatch against
  /// `expected` — surface from that first use, and every later use rethrows
  /// the same failure. `open` carries the warm-up hints (checksums,
  /// prefault, mlock).
  void add_snapshot(std::string id, std::filesystem::path path,
                    const snapshot::SnapshotOpenOptions& open = {},
                    std::optional<CliqueOptions> expected = std::nullopt);

  [[nodiscard]] bool has_graph(std::string_view id) const;
  [[nodiscard]] std::size_t size() const;

  /// Catalog summary in registration order.
  [[nodiscard]] std::vector<ServiceGraphInfo> catalog() const;

  /// The engine serving `id`, opening a snapshot entry if this is its first
  /// use. The reference stays valid for the service's lifetime. Throws
  /// std::invalid_argument for an unknown id, std::runtime_error for a
  /// snapshot that fails to open.
  [[nodiscard]] const PreparedGraph& engine(std::string_view id) const;

  /// Routes one query to the engine serving `id`.
  [[nodiscard]] Answer run(std::string_view id, const Query& query) const;

  /// As run(), threading `trace` (which may be nullptr) into the engine,
  /// which records the query's Search (and any Prepare) span.
  [[nodiscard]] Answer run(std::string_view id, const Query& query,
                           obs::TraceContext* trace) const;

  /// Cache-keying identity of the engine serving `id` (opening it on first
  /// use): engine_fingerprint over the id and the engine.
  [[nodiscard]] std::uint64_t fingerprint(std::string_view id) const;

  /// Forces `id` ready to serve: snapshot opened, artifacts and the
  /// clique-number upper bound built. A server calls this per graph at
  /// startup to move every cost off the first query.
  void prepare(std::string_view id) const;

 private:
  struct Entry;
  [[nodiscard]] Entry& find(std::string_view id) const;
  /// Appends `entry` under the exclusive lock; throws on a duplicate id.
  void register_entry(std::unique_ptr<Entry> entry);

  mutable std::shared_mutex catalog_mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
};

}  // namespace c3
