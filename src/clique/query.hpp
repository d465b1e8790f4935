// The typed query surface: one Query/Answer pair covering every question the
// engine can answer.
//
// The engine grew three overlapping query surfaces — PreparedGraph's named
// methods, QueryBatch's internal variant, and c3tool's string-parsed query
// files. This header unifies them: a Query is a small value (kind + k/kmax +
// per-query options) that round-trips through text, an Answer is the typed
// result, and PreparedGraph::run(const Query&) is the single execution entry
// every other surface wraps. Serving layers (QueryBatch, CliqueService)
// schedule Queries and return Answers; the named methods remain as thin
// wrappers.
//
// Per-query resource control lives in QueryOptions:
//   * max_workers       — caps the query's internal parallelism without
//                         touching the process-global worker cap
//                         (parallel.hpp WorkerCapScope);
//   * budget_seconds /  — best-effort early termination: enumeration kinds
//     cancel               stop at the next poll point, Spectrum between
//                          k values, MaxClique between probes; a cut-short
//                          Answer has `truncated` set;
//   * result_limit      — List stops after this many materialized cliques;
//   * want_witness      — MaxClique/FindClique skip materializing a witness.
//
// Text form (one query per line; '#' starts a comment):
//   count K | list K | hasclique K | findclique K | vertexcounts K |
//   edgecounts K | spectrum [KMAX] | maxclique
// followed by zero or more options: workers=N, limit=N, budget=SECONDS,
// witness=0|1. parse_query rejects malformed input with a QueryParseError
// naming the offending token; format_query/format_answer produce the
// canonical text, so query files and server protocols share one grammar.
#pragma once

#include <atomic>
#include <iosfwd>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "clique/common.hpp"
#include "clique/spectrum.hpp"
#include "graph/types.hpp"

namespace c3 {

class PreparedGraph;

/// Every question the engine answers, as one sum type.
enum class QueryKind {
  Count,            ///< number of k-cliques
  List,             ///< the k-cliques themselves (bounded by result_limit)
  HasClique,        ///< does a k-clique exist?
  FindClique,       ///< some k-clique, if any
  PerVertexCounts,  ///< k-clique count per vertex
  PerEdgeCounts,    ///< k-clique count per edge
  Spectrum,         ///< counts for every k up to kmax (0 = clique number)
  MaxClique,        ///< a maximum clique and its size
};

/// Per-query resource control. Default-constructed options run the query
/// exactly like the engine's named methods: full worker pool, no deadline,
/// unbounded results.
struct QueryOptions {
  /// Caps this query's internal parallelism (0 = the full pool). Applied as
  /// a per-thread WorkerCapScope, so concurrent queries with different caps
  /// never race on the global worker count.
  int max_workers = 0;
  /// Best-effort wall-clock budget in seconds (0 = none). An expired query
  /// returns what it found so far with Answer::truncated set. Cost note: an
  /// active budget or cancel token makes Count/Spectrum count through the
  /// listing path (so the control can cut mid-enumeration), bypassing the
  /// algorithms' no-callback counting fast paths — attach one when early
  /// cut-off matters more than peak counting throughput.
  double budget_seconds = 0.0;
  /// List only: stop after this many cliques (0 = all). The answer is
  /// marked truncated only when a clique beyond the limit actually exists —
  /// a graph with exactly this many k-cliques lists completely.
  count_t result_limit = 0;
  /// MaxClique / FindClique: materialize the witness clique. Turned off,
  /// MaxClique reports only omega (what max_clique_size() needs) and
  /// FindClique degenerates to HasClique.
  bool want_witness = true;
  /// External stop token (not representable in text). A query observes a
  /// store of `true` at its next poll point and returns truncated.
  std::shared_ptr<std::atomic<bool>> cancel;
};

/// One typed query. `k` parameterizes the per-k kinds; `kmax` bounds a
/// Spectrum (0 = up to the clique number). Unused fields are ignored.
struct Query {
  QueryKind kind = QueryKind::Count;
  int k = 0;
  int kmax = 0;
  QueryOptions opts;
};

/// One query's typed outcome. Which fields are meaningful depends on `kind`:
///   Count           -> count + stats
///   List            -> cliques + count (== cliques.size()) + stats
///   HasClique       -> found
///   FindClique      -> found + witness
///   PerVertexCounts / PerEdgeCounts -> per_counts + stats
///   Spectrum        -> spectrum + omega
///   MaxClique       -> omega + witness + found
/// `truncated` marks an answer cut short by result_limit, budget_seconds, or
/// the cancel token (its payload is a valid partial result). `seconds` is
/// the query's wall time inside run().
struct Answer {
  QueryKind kind = QueryKind::Count;
  int k = 0;
  count_t count = 0;
  bool found = false;
  bool truncated = false;
  std::vector<node_t> witness;
  std::vector<std::vector<node_t>> cliques;
  std::vector<count_t> per_counts;
  CliqueSpectrum spectrum;
  node_t omega = 0;
  CliqueStats stats;
  double seconds = 0.0;
};

/// Parse failure: `token()` is the offending token (possibly empty for a
/// missing argument), `what()` the full message naming it.
class QueryParseError : public std::invalid_argument {
 public:
  QueryParseError(const std::string& message, std::string token)
      : std::invalid_argument(message), token_(std::move(token)) {}
  [[nodiscard]] const std::string& token() const noexcept { return token_; }

 private:
  std::string token_;
};

/// Parses one query line (grammar above; '#' comments stripped). Throws
/// QueryParseError on malformed input. The line must contain a query —
/// blank/comment-only lines are an error; use parse_query_file for files.
[[nodiscard]] Query parse_query(std::string_view line);

/// Parses a whole query file: one query per line, blank and comment-only
/// lines skipped. A QueryParseError from a bad line is rethrown with the
/// 1-based line number prepended to the message.
[[nodiscard]] std::vector<Query> parse_query_file(std::istream& in);

/// Canonical text of `q` — the parse_query round-trip partner. Options at
/// their defaults are omitted; the cancel token has no text form.
[[nodiscard]] std::string format_query(const Query& q);

/// One-line human/machine-readable rendering of an answer (the text a
/// line-oriented server or c3tool batch emits per query).
[[nodiscard]] std::string format_answer(const Answer& a);

/// Human-readable query-kind name (tool/bench output; also the grammar's
/// keyword for that kind).
[[nodiscard]] const char* query_kind_name(QueryKind kind) noexcept;

/// Whether answering `q` may touch the prepared artifacts. Trivial sizes
/// (k <= 2 everywhere, spectra clamped to kmax <= 2) are answered from the
/// graph alone, so schedulers must not trigger preparation for them.
[[nodiscard]] bool query_needs_artifacts(const Query& q) noexcept;

/// Work estimate for scheduling, in arbitrary units comparable across the
/// queries of one engine: roughly the number of elementary search steps the
/// query will perform, derived from k and the engine's *already built*
/// artifacts (max out-degree of the oriented DAG, largest community). Never
/// triggers preparation — before the artifacts exist it falls back to
/// graph-shape proxies, so estimates are cheap enough to run per query.
[[nodiscard]] double estimate_query_cost(const PreparedGraph& engine, const Query& q) noexcept;

/// Field-wise equality over the text-representable fields. The cancel token
/// is deliberately *excluded*: it has no text form and identifies an
/// execution, not a question — comparing it by identity made two textually
/// identical queries unequal, breaking cache keying and batch dedup. The
/// round-trip parse_query(format_query(q)) == q holds for every q, cancel
/// token or not.
[[nodiscard]] bool operator==(const QueryOptions& a, const QueryOptions& b) noexcept;
[[nodiscard]] bool operator==(const Query& a, const Query& b) noexcept;

/// `q` with the execution-only controls reset to defaults — the worker cap,
/// the wall-clock budget, the cancel token — leaving only the question being
/// asked (kind, k/kmax, and the result-shaping options limit/witness, which
/// change the answer's content). Two queries with equal canonical questions
/// ask for the same answer; format_query of the canonical question is the
/// text an answer cache keys on.
[[nodiscard]] Query canonical_question(const Query& q);

/// True when `a` and `b` ask for the same answer: canonical_question
/// equality, i.e. execution-only controls ignored, result-shaping options
/// compared.
[[nodiscard]] bool same_question(const Query& a, const Query& b) noexcept;

}  // namespace c3
