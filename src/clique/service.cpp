#include "clique/service.hpp"

#include <atomic>
#include <stdexcept>
#include <utility>

#include "clique/answer_cache.hpp"

namespace c3 {

/// One named graph. In-memory entries own their Graph and engine from
/// registration; snapshot entries hold only the path until open_once fires.
/// The members written by the lazy open (snap, open_error) are guarded by
/// the once-latch: they are written only inside call_once and read only
/// after it returns, so post-open reads need no further synchronization.
struct CliqueService::Entry {
  std::string id;

  // In-memory source (heap-held so engine's Graph reference survives entry
  // moves; entries themselves are unique_ptr-held for the same reason).
  std::unique_ptr<Graph> graph;
  std::unique_ptr<PreparedGraph> local;

  // Snapshot source.
  std::filesystem::path path;
  snapshot::SnapshotOpenOptions open_opts;
  std::optional<CliqueOptions> expected;
  std::once_flag open_once;
  std::optional<snapshot::Snapshot> snap;
  std::exception_ptr open_error;
  // Published once the open succeeded (release after the emplace), so
  // catalog() can report shape without taking the open latch.
  std::atomic<bool> ready{false};

  [[nodiscard]] bool from_snapshot() const noexcept { return local == nullptr; }

  [[nodiscard]] bool opened() const noexcept {
    return local != nullptr || ready.load(std::memory_order_acquire);
  }

  /// The entry's engine, opening the snapshot on first use. A failed open is
  /// sticky: the latch has fired, so every later call rethrows the recorded
  /// failure instead of retrying against a file that already refused.
  [[nodiscard]] const PreparedGraph& engine() {
    if (local != nullptr) return *local;
    std::call_once(open_once, [this] {
      try {
        snap.emplace(expected.has_value()
                         ? snapshot::Snapshot::open(path, *expected, open_opts)
                         : snapshot::Snapshot::open(path, open_opts));
        ready.store(true, std::memory_order_release);
      } catch (...) {
        open_error = std::current_exception();
      }
    });
    if (open_error != nullptr) std::rethrow_exception(open_error);
    return snap->engine();
  }
};

CliqueService::CliqueService() = default;
CliqueService::~CliqueService() = default;

void CliqueService::add_graph(std::string id, Graph graph, const CliqueOptions& opts) {
  auto entry = std::make_unique<Entry>();
  entry->id = std::move(id);
  entry->graph = std::make_unique<Graph>(std::move(graph));
  entry->local = std::make_unique<PreparedGraph>(*entry->graph, opts);
  register_entry(std::move(entry));
}

void CliqueService::add_snapshot(std::string id, std::filesystem::path path,
                                 const snapshot::SnapshotOpenOptions& open,
                                 std::optional<CliqueOptions> expected) {
  auto entry = std::make_unique<Entry>();
  entry->id = std::move(id);
  entry->path = std::move(path);
  entry->open_opts = open;
  entry->expected = std::move(expected);
  register_entry(std::move(entry));
}

void CliqueService::register_entry(std::unique_ptr<Entry> entry) {
  const std::unique_lock<std::shared_mutex> lock(catalog_mutex_);
  for (const auto& existing : entries_) {
    if (existing->id == entry->id) {
      throw std::invalid_argument("CliqueService: duplicate graph id '" + entry->id + "'");
    }
  }
  entries_.push_back(std::move(entry));
}

bool CliqueService::has_graph(std::string_view id) const {
  const std::shared_lock<std::shared_mutex> lock(catalog_mutex_);
  for (const auto& entry : entries_) {
    if (entry->id == id) return true;
  }
  return false;
}

std::size_t CliqueService::size() const {
  const std::shared_lock<std::shared_mutex> lock(catalog_mutex_);
  return entries_.size();
}

std::vector<ServiceGraphInfo> CliqueService::catalog() const {
  const std::shared_lock<std::shared_mutex> lock(catalog_mutex_);
  std::vector<ServiceGraphInfo> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    ServiceGraphInfo info;
    info.id = entry->id;
    info.from_snapshot = entry->from_snapshot();
    info.opened = entry->opened();
    if (info.opened) {
      const Graph& g =
          entry->local != nullptr ? entry->local->graph() : entry->snap->engine().graph();
      info.num_nodes = g.num_nodes();
      info.num_edges = g.num_edges();
    }
    out.push_back(std::move(info));
  }
  return out;
}

CliqueService::Entry& CliqueService::find(std::string_view id) const {
  const std::shared_lock<std::shared_mutex> lock(catalog_mutex_);
  for (const auto& entry : entries_) {
    if (entry->id == id) return *entry;
  }
  throw std::invalid_argument("CliqueService: unknown graph id '" + std::string(id) + "'");
}

const PreparedGraph& CliqueService::engine(std::string_view id) const {
  return find(id).engine();
}

Answer CliqueService::run(std::string_view id, const Query& query) const {
  return run(id, query, nullptr);
}

Answer CliqueService::run(std::string_view id, const Query& query,
                          obs::TraceContext* trace) const {
  return engine(id).run(query, trace);
}

std::uint64_t CliqueService::fingerprint(std::string_view id) const {
  return engine_fingerprint(id, engine(id));
}

void CliqueService::prepare(std::string_view id) const {
  const PreparedGraph& e = engine(id);
  e.prepare();
  const Graph& g = e.graph();
  if (g.num_nodes() > 0 && g.num_edges() > 0) (void)e.clique_number_upper_bound();
}

}  // namespace c3
