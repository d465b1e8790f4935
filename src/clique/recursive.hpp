// The recursive clique search — Algorithm 2 of the paper.
//
// Searches for c-cliques inside a local subgraph (LocalGraph) restricted to
// a candidate set I, growing the partial clique by an *edge* (2 vertices)
// per level:
//
//   * base case c == 1: every candidate completes a clique (line 2);
//   * base case c == 2: every edge inside I completes a clique (line 4);
//   * otherwise: iterate the pairs (u, v) in I x I whose distance
//     delta_I(u, v) — the number of candidates ordered between them — is at
//     least c - 2 (line 6: the relevant-pair pruning of Figure 2), probe the
//     edge (line 7, a bit test), intersect I with the edge's community
//     (line 8, word-parallel AND restricted to the open interval (u, v)),
//     and recurse with c - 2 (line 9).
//
// Correctness hinges on Observation 1: within a clique oriented by a total
// order, the pair (first, last) — the supporting edge — is the unique edge
// whose community contains the rest of the clique, so every clique is
// produced exactly once. The interval restriction in the intersection is
// what enforces "community" (= vertices ordered strictly between the
// endpoints) rather than "common neighborhood".
//
// Counting by pivoting: a count (no callback) of c >= 3 walks none of the
// above. It builds the succinct clique tree of Jain & Seshadhri's Pivoter
// with Bron–Kerbosch pivoting over the same bitset rows and sums closed
// forms at its leaves: C(|P| + p, c - h) for a complete set, the 0-, 1- and
// 2-cliques of P when at most two vertices are left to choose. A closed form
// past count_t's range refuses the count. Listing — and so every decision,
// witness, per-vertex and per-edge query — walks Algorithm 2, and a count of
// c <= 2 keeps its one-popcount leaves (DESIGN.md §7, "Counting by
// pivoting").
//
// The recursions live in recursive_impl.hpp, compiled twice: a baseline
// build and, on x86-64, a -mpopcnt build; the entries below pick one from
// the active backend on every call (bits::active_kernel_backend, named by
// bits::kernel_backend_name).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "clique/common.hpp"
#include "clique/local_graph.hpp"
#include "graph/types.hpp"
#include "util/bitkernels.hpp"

namespace c3 {

/// One query's wall-clock budget and cancel token, built per query by
/// PreparedGraph::run. expired() latches: once it has seen the token set or
/// the deadline passed, `tripped` stays set, so the answer can be marked
/// truncated. Safe to poll from any worker.
struct QueryLimit {
  using Clock = std::chrono::steady_clock;

  const std::atomic<bool>* cancel = nullptr;
  Clock::time_point deadline = Clock::time_point::max();  ///< max = no budget
  std::atomic<bool> tripped{false};

  /// A budget of 0, NaN, or 1e9 s (~32 years) and more sets no deadline, so
  /// the deadline arithmetic cannot overflow the clock's range.
  QueryLimit(const std::atomic<bool>* token, double budget_seconds) noexcept : cancel(token) {
    if (budget_seconds > 0.0 && budget_seconds < 1e9) {
      deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(budget_seconds));
    }
  }

  [[nodiscard]] bool armed() const noexcept {
    return cancel != nullptr || deadline != Clock::time_point::max();
  }

  /// The token alone, no clock read: the top-level loops' once-per-task check.
  [[nodiscard]] bool cancelled() noexcept {
    if (cancel == nullptr || !cancel->load(std::memory_order_relaxed)) return false;
    tripped.store(true, std::memory_order_relaxed);
    return true;
  }

  /// The token, then the deadline.
  [[nodiscard]] bool expired() noexcept {
    if (tripped.load(std::memory_order_relaxed) || cancelled()) return true;
    if (deadline == Clock::time_point::max() || Clock::now() < deadline) return false;
    tripped.store(true, std::memory_order_relaxed);
    return true;
  }

  [[nodiscard]] bool was_tripped() const noexcept {
    return tripped.load(std::memory_order_relaxed);
  }
};

/// Per-worker state for one sequence of recursive searches: the local graph
/// being searched, instrumentation counters, optional listing support, and
/// the per-level scratch (candidate arrays + community masks).
struct SearchContext {
  const LocalGraph* lg = nullptr;
  bool prune = true;  ///< the relevant-pair criterion (ablation switch)
  LocalCounters* ctr = nullptr;

  /// Listing mode when non-null: cliques are materialized through
  /// member_to_orig into clique_stack and reported via callback.
  const CliqueCallback* callback = nullptr;
  std::vector<node_t> clique_stack;
  const node_t* member_to_orig = nullptr;
  bool stopped = false;  ///< this worker has seen the query stop

  /// Cross-worker early-stop flag, shared by all contexts of one run. When a
  /// callback returns false or the limit expires anywhere, every other
  /// worker observes it at its next poll point (each recursion entry and
  /// each emission) instead of finishing its in-flight top-level task.
  /// Null for a plain count, which has nothing that could raise it.
  std::atomic<bool>* stop = nullptr;

  /// The query's budget / cancel limit when one is armed (requires `stop`).
  /// poll_stop asks it on every kLimitStride-th poll, the first included.
  QueryLimit* limit = nullptr;
  unsigned limit_countdown = 1;
  static constexpr unsigned kLimitStride = 1024;

  /// Refreshes `stopped` from the shared flag and, on the limit's stride,
  /// from the limit (raising the flag on expiry); returns the merged state.
  [[nodiscard]] bool poll_stop() noexcept {
    if (!stopped && stop != nullptr &&
        (stop->load(std::memory_order_relaxed) ||
         (limit != nullptr && --limit_countdown == 0 && limit_expired()))) {
      stopped = true;
    }
    return stopped;
  }

  /// The stride's slow step, kept out of the recursions' hot loops: restarts
  /// the countdown, asks the limit, and raises `stop` when it has expired.
  [[nodiscard]] bool limit_expired() noexcept;

  /// Records a callback's false return locally and broadcasts it.
  void request_stop() noexcept {
    stopped = true;
    if (stop != nullptr) stop->store(true, std::memory_order_relaxed);
  }

  /// Grows the per-level scratch to cover `depth` levels of masks of
  /// `words` words and, when gamma > 0, of candidate arrays of `gamma`.
  void ensure_capacity(int gamma, int depth, int words);

  [[nodiscard]] int* cand_at(int level) noexcept {
    return cand_pool_.data() + static_cast<std::size_t>(level) * cand_stride_;
  }
  [[nodiscard]] std::uint64_t* mask_at(int level) noexcept {
    return mask_pool_.data() + static_cast<std::size_t>(level) * mask_stride_;
  }

 private:
  std::vector<int> cand_pool_;
  // Community/candidate masks follow the row storage contract
  // (util/bitkernels.hpp): 64-byte-aligned pool, stride = the LocalGraph's
  // row stride, bits past the universe zero.
  bits::KernelWords mask_pool_;
  std::size_t cand_stride_ = 0;
  std::size_t cand_depth_ = 0;
  std::size_t mask_stride_ = 0;
  std::size_t mask_depth_ = 0;
};

/// Runs Algorithm 2 on the top-level candidate set `candidates` — sorted
/// ascending local ids of ctx.lg; the whole universe when omitted — and
/// returns the number of c-cliques of ctx.lg[candidates], reporting each
/// through ctx.callback in listing mode. The recursion indexes the candidate
/// array and its mask, never the universe, so the universe may be any
/// superset of the candidates: the count, the listing and every work counter
/// except `intersection_words` are those of a compact G[candidates] (and that
/// one too while both universes fit one word). Used by the top level of
/// Algorithm 1 (I = C(e) inside its source's G[N+(u)]), Algorithm 3
/// (I = V'(e)), and the hybrid's per-vertex subproblems (I = N+(v)); sizes
/// the scratch itself. A count of c >= 3 pivots (see the header comment),
/// reading only the words of the candidates' span; a listing walks.
///
/// Each level grows the partial clique by the supporting pair (a, b) of the
/// remaining clique and recurses on I ∩ C(a, b). With `triangle_growth` it
/// runs the generalization the paper's conclusion poses as future work
/// ("extend the cliques by larger motifs such as triangles"): each level adds
/// a triangle (a, x, b) — a/b the extremes and x the minimal internal vertex
/// of the remaining clique — and recurses with c - 3 on B(a,b) ∩ N(x) ∩ {> x}.
/// (min, second-min, max) of every clique is a canonical triple, so each
/// clique is still produced exactly once; depth shrinks from ~c/2 to ~c/3.
[[nodiscard]] count_t search_cliques_all(
    SearchContext& ctx, int c, bool triangle_growth = false,
    std::optional<std::span<const int>> candidates = std::nullopt);

/// Algorithm 2's base case c == 1 (line 2) as one recursive call: every one
/// of `members` completes the clique on ctx.clique_stack. The recursion's
/// leaves run it on local ids; the k = 3 top levels of c3List and c3List-CD
/// run it straight on a community, with no local graph. `to_orig` maps a
/// member to its original vertex id for listing.
template <typename Member, typename ToOrig>
count_t search_base_case(SearchContext& ctx, std::span<const Member> members, ToOrig&& to_orig) {
  LocalCounters& ctr = *ctx.ctr;
  ++ctr.recursive_calls;
  if (ctx.poll_stop()) return 0;
  ctr.leaf_work += members.size();
  if (ctx.callback == nullptr) return static_cast<count_t>(members.size());
  count_t emitted = 0;
  for (const Member m : members) {
    if (ctx.poll_stop()) break;
    ctx.clique_stack.push_back(to_orig(m));
    const bool keep_going = (*ctx.callback)(std::span<const node_t>(ctx.clique_stack));
    ctx.clique_stack.pop_back();
    ++emitted;
    if (!keep_going) {
      ctx.request_stop();
      break;
    }
  }
  return emitted;
}

/// Vertex-at-a-time recursion over the full local universe: pick the next
/// clique vertex x ascending (= respecting the orientation), descend into
/// mask ∩ N(x) ∩ {> x} with c - 1. The arboricity-style counterpart of the
/// pair growth — one vertex per level instead of an edge — shared by
/// ArbCount and kcList's dense-subproblem path; sizes the scratch itself.
/// Counts of c >= 3 pivot, as the pair growth's do.
[[nodiscard]] count_t search_cliques_vertex_all(SearchContext& ctx, int c);

}  // namespace c3
