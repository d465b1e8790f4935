// Algorithm 2's recursions (see recursive.hpp), compiled twice from this one
// source: recursive.cpp includes it for the baseline build, and on x86-64
// recursive_popcnt.cpp includes it again under -mpopcnt (DESIGN.md §7,
// "Search builds"). Everything below has internal linkage and counts bits
// with __builtin_popcountll rather than a shared inline helper such as
// std::popcount or bits::popcount: the linker keeps one out-of-line copy of
// such a helper for all TUs, and it must never be a POPCNT copy that the
// baseline build would then run.
//
// The recursions are templated on the row width kWords: 1 pins a one-word
// universe (<= 64 local vertices — nearly every community, since gamma is at
// most the degeneracy), where the interval mask, the intersection, the leaf
// popcounts and the candidate walks compile to straight-line word ops with
// no clear loop and no out-of-line call; 0 reads the width from the
// LocalGraph at run time. Rows of up to kKernelInlineWords words run inline;
// wider ones dispatch to the active kernel table (util/bitkernels.hpp).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>

#include "clique/combinatorics.hpp"
#include "clique/recursive.hpp"
#include "util/bitkernels.hpp"
#include "util/bitwords.hpp"

namespace c3::detail {

/// One build of the recursions: the entries recursive.cpp dispatches to.
struct SearchBuild {
  count_t (*cliques_all)(SearchContext& ctx, int c, bool triangle_growth,
                         std::optional<std::span<const int>> candidates);
  count_t (*vertex_all)(SearchContext& ctx, int c);
  const char* name;
};

/// The -mpopcnt build, or nullptr when it is not compiled in (not x86-64,
/// or the compiler lacks the flag) or the CPU lacks POPCNT.
[[nodiscard]] const SearchBuild* popcnt_search_build() noexcept;

}  // namespace c3::detail

namespace c3 {
namespace {

using bits::kKernelInlineWords;
using bits::word_index;

[[nodiscard]] std::uint64_t popcount64(std::uint64_t w) noexcept {
  return static_cast<std::uint64_t>(__builtin_popcountll(w));
}

/// Words per row for width kWords.
template <int kWords>
[[nodiscard]] std::size_t row_words(const LocalGraph& lg) noexcept {
  if constexpr (kWords == 1) {
    return 1;
  } else {
    return static_cast<std::size_t>(lg.words());
  }
}

[[nodiscard]] std::uint64_t popcount(const std::uint64_t* a, std::size_t words) noexcept {
  if (words > kKernelInlineWords) return bits::kernels().popcount(a, words);
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < words; ++w) total += popcount64(a[w]);
  return total;
}

[[nodiscard]] std::uint64_t popcount_and(const std::uint64_t* a, const std::uint64_t* b,
                                         std::size_t words) noexcept {
  if (words > kKernelInlineWords) return bits::kernels().popcount_and(a, b, words);
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < words; ++w) total += popcount64(a[w] & b[w]);
  return total;
}

/// Calls f(i) for every set bit i of a & b, ascending.
template <typename F>
void for_each_bit_and(const std::uint64_t* a, const std::uint64_t* b, std::size_t words, F&& f) {
  if (words <= kKernelInlineWords) return bits::for_each_bit_and(a, b, words, f);
  using Fn = std::remove_reference_t<F>;
  bits::kernels().for_each_bit_and(
      a, b, words, const_cast<void*>(static_cast<const void*>(&f)),
      [](void* ctx, std::size_t bit) { (*static_cast<Fn*>(ctx))(bit); });
}

/// dst = row_a & row_b & mask & open-interval(a, b); returns |dst|.
/// This is line 8 of Algorithm 2: I' <- I ∩ C(e), where the community of
/// (a, b) inside the local DAG is exactly the common neighborhood restricted
/// to vertices ordered strictly between a and b. AND3 + interval masking +
/// popcount in one pass over the interval's words; an interval spanning more
/// than kKernelInlineWords words runs the active backend's fused kernel.
template <int kWords>
int intersect_community(const std::uint64_t* row_a, const std::uint64_t* row_b,
                        const std::uint64_t* mask, std::size_t words, int a, int b,
                        std::uint64_t* dst, LocalCounters& ctr) noexcept {
  if (b - a < 2) {  // empty interval
    bits::clear_words(dst, words);
    return 0;
  }
  const auto lo = static_cast<std::size_t>(a) + 1;
  const auto hi = static_cast<std::size_t>(b) - 1;
  ctr.intersection_words += word_index(hi) - word_index(lo) + 1;
  if constexpr (kWords == 1) {
    // lo <= hi <= 62 inside one word, so neither shift overflows.
    const std::uint64_t interval = (~std::uint64_t{0} << lo) & (~std::uint64_t{0} >> (63 - hi));
    dst[0] = row_a[0] & row_b[0] & mask[0] & interval;
    return static_cast<int>(popcount64(dst[0]));
  } else {
    const std::size_t wlo = word_index(lo);
    const std::size_t whi = word_index(hi);
    if (whi - wlo >= kKernelInlineWords)
      return static_cast<int>(
          bits::kernels().intersect_interval(row_a, row_b, mask, dst, words, lo, hi));
    bits::clear_words(dst, words);
    const std::uint64_t head = ~std::uint64_t{0} << (lo % bits::kWordBits);
    const std::uint64_t tail = ~std::uint64_t{0} >> (63 - hi % bits::kWordBits);
    std::uint64_t count = 0;
    for (std::size_t w = wlo; w <= whi; ++w) {
      std::uint64_t m = row_a[w] & row_b[w] & mask[w];
      if (w == wlo) m &= head;
      if (w == whi) m &= tail;
      dst[w] = m;
      count += popcount64(m);
    }
    return static_cast<int>(count);
  }
}

/// dst = row & mask & {bits > x}; returns |dst|. One step of the
/// vertex-growth and triangle-growth recursions.
template <int kWords>
std::uint64_t intersect_above(const std::uint64_t* row, const std::uint64_t* mask,
                              std::uint64_t* dst, std::size_t words, std::size_t x) noexcept {
  if constexpr (kWords == 1) {
    dst[0] = row[0] & mask[0] & ((~std::uint64_t{0} << x) << 1);  // x <= 63
    return popcount64(dst[0]);
  } else {
    const std::size_t wx = word_index(x);
    if (words > kKernelInlineWords && words - wx > kKernelInlineWords)
      return bits::kernels().intersect_above(row, mask, dst, words, x);
    for (std::size_t w = 0; w < wx; ++w) dst[w] = 0;
    dst[wx] = row[wx] & mask[wx] & ((~std::uint64_t{0} << (x % bits::kWordBits)) << 1);
    std::uint64_t count = popcount64(dst[wx]);
    for (std::size_t w = wx + 1; w < words; ++w) {
      dst[w] = row[w] & mask[w];
      count += popcount64(dst[w]);
    }
    return count;
  }
}

/// Emits one complete clique from the listing stack; returns false when the
/// callback requests early termination.
bool emit(SearchContext& ctx) {
  return (*ctx.callback)(std::span<const node_t>(ctx.clique_stack));
}

/// Pair growth (Algorithm 2): counts (and in listing mode reports) the
/// c-cliques of ctx.lg restricted to candidates `I` (sorted ascending local
/// ids) with membership mask `I_mask`. `level` indexes the scratch arrays
/// and must leave room for ceil(c/2) further levels. A count reaches it only
/// at c <= 2; larger counts pivot (count_by_pivot).
template <int kWords>
count_t search_cliques(SearchContext& ctx, std::span<const int> I, const std::uint64_t* I_mask,
                       int c, int level) {
  assert(c >= 1);
  // Base case c == 1 (Algorithm 2, line 2): every candidate is a clique.
  if (c == 1) return search_base_case(ctx, I, [&](int a) { return ctx.member_to_orig[a]; });

  LocalCounters& ctr = *ctx.ctr;
  ++ctr.recursive_calls;
  if (ctx.poll_stop()) return 0;

  const LocalGraph& lg = *ctx.lg;
  const std::size_t words = row_words<kWords>(lg);
  const bool listing = ctx.callback != nullptr;

  // Base case c == 2 (line 4): every edge inside I is a clique.
  if (c == 2) {
    if (!listing) {
      if (I.empty()) return 0;
      // Only the words of I's span can hold a member.
      const std::size_t lo = word_index(static_cast<std::size_t>(I.front()));
      const std::size_t span = word_index(static_cast<std::size_t>(I.back())) - lo + 1;
      count_t twice = 0;
      for (const int a : I) twice += popcount_and(lg.row(a) + lo, I_mask + lo, span);
      ctr.intersection_words += I.size() * span;
      ctr.leaf_work += twice / 2;
      return twice / 2;
    }
    count_t emitted = 0;
    for (const int a : I) {
      if (ctx.poll_stop()) break;
      for_each_bit_and(lg.row(a), I_mask, words, [&](std::size_t b) {
        if (ctx.poll_stop() || static_cast<int>(b) <= a) return;
        ctx.clique_stack.push_back(ctx.member_to_orig[a]);
        ctx.clique_stack.push_back(ctx.member_to_orig[b]);
        if (!emit(ctx)) ctx.request_stop();
        ctx.clique_stack.pop_back();
        ctx.clique_stack.pop_back();
        ++emitted;
      });
    }
    ctr.leaf_work += emitted;
    return emitted;
  }

  // Recursive case (lines 6-10). The relevant-pair criterion: with I kept
  // sorted, delta_I(I[i], I[j]) = j - i - 1, so only j >= i + c - 1 can
  // support a further (c)-clique through the pair (Figure 2).
  const int t = static_cast<int>(I.size());
  const int gap = ctx.prune ? c - 2 : 0;
  std::uint64_t* community = ctx.mask_at(level);
  count_t total = 0;

  for (int i = 0; i < t && !ctx.poll_stop(); ++i) {
    const int a = I[static_cast<std::size_t>(i)];
    const std::uint64_t* row_a = lg.row(a);
    for (int j = i + 1 + gap; j < t && !ctx.stopped; ++j) {
      const int b = I[static_cast<std::size_t>(j)];
      ++ctr.pairs_probed;
      if (!bits::test_bit(row_a, static_cast<std::size_t>(b))) continue;  // line 7
      ++ctr.edges_matched;

      const int isz =
          intersect_community<kWords>(row_a, lg.row(b), I_mask, words, a, b, community, ctr);
      if (isz < c - 2) continue;  // too few candidates to finish the clique

      // Materialize the new candidate array (ascending == rank order) and
      // recurse with budget c - 2.
      int* next = ctx.cand_at(level);
      int pos = 0;
      bits::for_each_bit(community, words,
                         [&](std::size_t x) { next[pos++] = static_cast<int>(x); });
      ctx.clique_stack.push_back(ctx.member_to_orig[a]);
      ctx.clique_stack.push_back(ctx.member_to_orig[b]);
      add_count(total,
                search_cliques<kWords>(ctx, std::span<const int>(next, static_cast<std::size_t>(pos)),
                                       community, c - 2, level + 1),
                ctr);
      ctx.clique_stack.pop_back();
      ctx.clique_stack.pop_back();
    }
  }
  return total;
}

/// Triangle growth, the generalization the paper's conclusion poses as
/// future work ("extend the cliques by larger motifs such as triangles"):
/// each level adds a triangle (a, x, b) — a/b the extremes and x the minimal
/// internal vertex of the remaining clique — and recurses with c - 3 on
/// B(a,b) ∩ N(x) ∩ {> x}. Uniqueness: (min, second-min, max) of every clique
/// is a canonical triple, so each clique is still produced exactly once.
/// Depth shrinks from ~c/2 to ~c/3 levels.
template <int kWords>
count_t search_cliques_tri(SearchContext& ctx, std::span<const int> I,
                           const std::uint64_t* I_mask, int c, int level) {
  // Pair growth handles c <= 3: a triangle is one supporting pair plus a
  // c == 1 leaf. Only a listing reaches c >= 4 here.
  if (c <= 3) return search_cliques<kWords>(ctx, I, I_mask, c, level);

  LocalCounters& ctr = *ctx.ctr;
  ++ctr.recursive_calls;
  if (ctx.poll_stop()) return 0;

  const LocalGraph& lg = *ctx.lg;
  const std::size_t words = row_words<kWords>(lg);
  const int t = static_cast<int>(I.size());
  const int gap = ctx.prune ? c - 2 : 0;
  std::uint64_t* community = ctx.mask_at(level);
  std::uint64_t* inner = ctx.mask_at(level + 1);
  count_t total = 0;

  for (int i = 0; i < t && !ctx.poll_stop(); ++i) {
    const int a = I[static_cast<std::size_t>(i)];
    const std::uint64_t* row_a = lg.row(a);
    for (int j = i + 1 + gap; j < t && !ctx.stopped; ++j) {
      const int b = I[static_cast<std::size_t>(j)];
      ++ctr.pairs_probed;
      if (!bits::test_bit(row_a, static_cast<std::size_t>(b))) continue;
      ++ctr.edges_matched;
      const int bsz =
          intersect_community<kWords>(row_a, lg.row(b), I_mask, words, a, b, community, ctr);
      if (bsz < c - 2) continue;

      // Grow by the third triangle vertex: the minimal internal member x.
      bits::for_each_bit(community, words, [&](std::size_t xbit) {
        if (ctx.poll_stop()) return;
        const int x = static_cast<int>(xbit);
        // inner = community ∩ N(x) ∩ {> x}, fused with its popcount.
        ctr.intersection_words += words - word_index(xbit);
        const std::uint64_t isz = intersect_above<kWords>(lg.row(x), community, inner, words, xbit);
        if (isz < static_cast<std::uint64_t>(c - 3)) return;

        int* next = ctx.cand_at(level);
        int pos = 0;
        bits::for_each_bit(inner, words,
                           [&](std::size_t y) { next[pos++] = static_cast<int>(y); });
        ctx.clique_stack.push_back(ctx.member_to_orig[a]);
        ctx.clique_stack.push_back(ctx.member_to_orig[b]);
        ctx.clique_stack.push_back(ctx.member_to_orig[x]);
        add_count(total,
                  search_cliques_tri<kWords>(
                      ctx, std::span<const int>(next, static_cast<std::size_t>(pos)), inner,
                      c - 3, level + 2),
                  ctr);
        ctx.clique_stack.pop_back();
        ctx.clique_stack.pop_back();
        ctx.clique_stack.pop_back();
      });
    }
  }
  return total;
}

/// Vertex growth: pick the next clique vertex x ascending (= respecting the
/// orientation), descend into mask ∩ N(x) ∩ {> x} with c - 1. `level`
/// indexes the mask scratch and must leave room for c - 2 further levels. A
/// count reaches it only at c <= 2; larger counts pivot (count_by_pivot).
template <int kWords>
count_t search_cliques_vertex(SearchContext& ctx, const std::uint64_t* mask, int c, int level) {
  assert(c >= 1);
  LocalCounters& ctr = *ctx.ctr;
  ++ctr.recursive_calls;
  if (ctx.poll_stop()) return 0;

  const LocalGraph& lg = *ctx.lg;
  const std::size_t words = row_words<kWords>(lg);
  const bool listing = ctx.callback != nullptr;

  // Base case c == 1: every remaining candidate completes a clique.
  if (c == 1) {
    const count_t found = popcount(mask, words);
    ctr.leaf_work += found;
    if (!listing) return found;
    bits::for_each_bit(mask, words, [&](std::size_t x) {
      if (ctx.poll_stop()) return;
      ctx.clique_stack.push_back(ctx.member_to_orig[x]);
      if (!emit(ctx)) ctx.request_stop();
      ctx.clique_stack.pop_back();
    });
    return found;
  }

  std::uint64_t* next = ctx.mask_at(level);
  count_t total = 0;
  bits::for_each_bit(mask, words, [&](std::size_t x) {
    if (ctx.poll_stop()) return;
    // next = candidates after x that are adjacent to x, count fused in.
    ctr.intersection_words += words - word_index(x);
    ctr.pairs_probed += 1;
    const std::uint64_t isz =
        intersect_above<kWords>(lg.row(static_cast<int>(x)), mask, next, words, x);

    if (c == 2) {
      ctr.leaf_work += isz;
      total += static_cast<count_t>(isz);
      if (listing) {
        bits::for_each_bit(next, words, [&](std::size_t y) {
          if (ctx.poll_stop()) return;
          ctx.clique_stack.push_back(ctx.member_to_orig[x]);
          ctx.clique_stack.push_back(ctx.member_to_orig[y]);
          if (!emit(ctx)) ctx.request_stop();
          ctx.clique_stack.pop_back();
          ctx.clique_stack.pop_back();
        });
      }
      return;
    }
    if (isz >= static_cast<std::uint64_t>(c - 1)) {
      ++ctr.edges_matched;
      ctx.clique_stack.push_back(ctx.member_to_orig[x]);
      add_count(total, search_cliques_vertex<kWords>(ctx, next, c - 1, level + 1), ctr);
      ctx.clique_stack.pop_back();
    }
  });
  return total;
}

/// The words [base, base + words) of ctx.lg's rows that one pivot count
/// reads: those of its top-level set, which hold every set below it. Bit i
/// of a span mask is local vertex base * 64 + i.
template <int kWords>
struct PivotSpan {
  const LocalGraph* lg;
  std::size_t base;
  std::size_t span_words;

  [[nodiscard]] std::size_t words() const noexcept {
    if constexpr (kWords == 1) {
      return 1;
    } else {
      return span_words;
    }
  }
  [[nodiscard]] const std::uint64_t* row(std::size_t bit) const noexcept {
    return lg->row(static_cast<int>(base * bits::kWordBits + bit)) + base;
  }
};

/// dst = a & b over `words` words; returns |dst|.
template <int kWords>
std::uint64_t intersect_span(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* dst,
                             std::size_t words) noexcept {
  if constexpr (kWords == 1) {
    dst[0] = a[0] & b[0];
    return popcount64(dst[0]);
  } else {
    if (words > kKernelInlineWords)
      return bits::kernels().intersect_interval(a, b, b, dst, words, 0,
                                                words * bits::kWordBits - 1);
    std::uint64_t count = 0;
    for (std::size_t w = 0; w < words; ++w) {
      dst[w] = a[w] & b[w];
      count += popcount64(dst[w]);
    }
    return count;
  }
}

/// C(n, k) for a pivot count's closed forms (0 when k < 0). Past count_t's
/// range it raises ctr.count_overflow, so the query is refused at the merge
/// rather than answered with a wrapped count.
count_t pivot_binomial(std::uint64_t n, int k, LocalCounters& ctr) noexcept {
  if (k < 0) return 0;
  const std::optional<count_t> b = checked_binomial(n, static_cast<count_t>(k));
  if (!b) ctr.count_overflow = true;
  return b.value_or(0);
}

/// a * b for a pivot count's closed forms, raising ctr.count_overflow past
/// count_t's range.
count_t pivot_product(count_t a, count_t b, LocalCounters& ctr) noexcept {
  count_t product = 0;
  if (__builtin_mul_overflow(a, b, &product)) ctr.count_overflow = true;
  return product;
}

/// A pivot-tree leaf's count, booked as leaf_work.
count_t pivot_leaf(count_t n, LocalCounters& ctr) noexcept {
  ctr.leaf_work += n;
  return n;
}

/// Counting by pivoting (DESIGN.md §7, "Counting by pivoting"): one node of
/// the succinct clique tree of Jain & Seshadhri's Pivoter, built with
/// Bron–Kerbosch pivoting. The node stands for every clique made of its
/// `held` vertices (all in), any of its `pivots` vertices, and a clique of
/// G[P], P the span mask `P` of `size` members, every one adjacent to all
/// held and pivot vertices. Returns how many of those have c vertices.
/// `level` indexes two mask slots (P minus the branched vertices, and the
/// child's set); a child's set is smaller than P, so a top-level set of t
/// members needs t levels.
template <int kWords>
count_t count_by_pivot(SearchContext& ctx, const PivotSpan<kWords>& span, const std::uint64_t* P,
                       std::uint64_t size, int c, int held, int pivots, int level) {
  LocalCounters& ctr = *ctx.ctr;
  ++ctr.recursive_calls;
  if (ctx.poll_stop()) return 0;
  const int r = c - held;  // vertices still to choose, >= 2 (an r <= 2 node is a leaf)
  if (static_cast<std::uint64_t>(pivots) + size < static_cast<std::uint64_t>(r)) return 0;
  const auto p = static_cast<std::uint64_t>(pivots);
  if (size == 0) return pivot_leaf(pivot_binomial(p, r, ctr), ctr);

  // Each member's degree inside P: the pivot has the largest (the lowest id
  // on ties), and the smallest and the sum decide the closed forms.
  const std::size_t words = span.words();
  std::size_t pivot = 0;
  std::uint64_t max_degree = 0, min_degree = size, degree_sum = 0;
  bool first = true;
  bits::for_each_bit(P, words, [&](std::size_t x) {
    const std::uint64_t d = popcount_and(span.row(x), P, words);
    degree_sum += d;
    min_degree = std::min(min_degree, d);
    if (first || d > max_degree) {
      pivot = x;
      max_degree = d;
      first = false;
    }
  });
  ctr.intersection_words += size * words;

  // A complete P: choose r of its members and the pivots freely.
  if (min_degree + 1 == size) {
    ++ctr.closed_form_sets;
    return pivot_leaf(pivot_binomial(size + p, r, ctr), ctr);
  }
  // r <= 2: the 0-, 1- and 2-cliques of G[P] are 1, |P| and its edges.
  if (r <= 2) {
    count_t n = pivot_binomial(p, r, ctr);
    add_count(n, pivot_product(size, pivot_binomial(p, r - 1, ctr), ctr), ctr);
    add_count(n, pivot_product(degree_sum / 2, pivot_binomial(p, r - 2, ctr), ctr), ctr);
    return pivot_leaf(n, ctr);
  }

  // Branch on P \ N(pivot), ascending, dropping each branched vertex from
  // `rest`: the pivot joins its child as a pivot vertex, every other w as a
  // held one. P is the parent's slot (or the top level's), untouched below.
  std::uint64_t* rest = ctx.mask_at(2 * level);
  std::uint64_t* child = ctx.mask_at(2 * level + 1);
  std::copy(P, P + words, rest);
  const std::uint64_t* pivot_row = span.row(pivot);
  count_t total = 0;
  for (std::size_t w = 0; w < words && !ctx.stopped; ++w) {
    for (std::uint64_t m = P[w] & ~pivot_row[w]; m != 0 && !ctx.stopped; m &= m - 1) {
      const std::size_t x = w * bits::kWordBits + static_cast<std::size_t>(__builtin_ctzll(m));
      ctr.intersection_words += words;
      const std::uint64_t child_size = intersect_span<kWords>(span.row(x), rest, child, words);
      rest[w] &= ~bits::bit_mask(x);
      const bool is_pivot = x == pivot;
      const int child_held = held + (is_pivot ? 0 : 1);
      const int child_pivots = pivots + (is_pivot ? 1 : 0);
      // A child that cannot reach c vertices is no node of the tree.
      if (static_cast<std::uint64_t>(child_held + child_pivots) + child_size <
          static_cast<std::uint64_t>(c))
        continue;
      add_count(total,
                count_by_pivot<kWords>(ctx, span, child, child_size, c, child_held, child_pivots,
                                       level + 1),
                ctr);
    }
  }
  return total;
}

/// A count of c >= 3: the c-cliques of ctx.lg[candidates] (the whole
/// universe when omitted) by pivoting, on the candidates' word span only.
count_t count_all_by_pivot(SearchContext& ctx, int c,
                           std::optional<std::span<const int>> candidates) {
  const LocalGraph& lg = *ctx.lg;
  const auto n = static_cast<std::size_t>(lg.size());
  std::size_t lo = 0, hi = n == 0 ? 0 : n - 1;
  if (candidates && !candidates->empty()) {
    lo = static_cast<std::size_t>(candidates->front());
    hi = static_cast<std::size_t>(candidates->back());
  }
  const std::size_t base = word_index(lo);
  const std::size_t words = word_index(hi) - base + 1;
  const std::size_t members = candidates ? candidates->size() : n;
  // Two slots per level, then the top level's mask.
  const int top_slot = 2 * static_cast<int>(members);
  ctx.ensure_capacity(0, top_slot + 1, lg.words());
  std::uint64_t* top = ctx.mask_at(top_slot);
  if (candidates) {
    bits::clear_words(top, words);
    for (const int a : *candidates)
      bits::set_bit(top, static_cast<std::size_t>(a) - base * bits::kWordBits);
  } else {
    bits::fill_prefix(top, n, words);
  }
  const auto size = static_cast<std::uint64_t>(members);
  if (words == 1) return count_by_pivot<1>(ctx, PivotSpan<1>{&lg, base, 1}, top, size, c, 0, 0, 0);
  return count_by_pivot<0>(ctx, PivotSpan<0>{&lg, base, words}, top, size, c, 0, 0, 0);
}

/// The build's search_cliques_all: a count of c >= 3 pivots; otherwise it
/// sizes the scratch, builds the top-level candidate array and mask, and
/// runs the one-word instantiation when the universe fits one word.
count_t cliques_all(SearchContext& ctx, int c, bool triangle_growth,
                    std::optional<std::span<const int>> candidates) {
  if (ctx.callback == nullptr && c >= 3) return count_all_by_pivot(ctx, c, candidates);
  const int n = ctx.lg->size();
  const int words = ctx.lg->words();
  // Depth bound: c shrinks by >= 2 per level (pair growth) and the triangle
  // variant consumes two mask slots per level; c + 3 covers both with slack.
  ctx.ensure_capacity(n, c + 3, words);
  std::uint64_t* mask = ctx.mask_at(c + 2);  // the top level borrows the last slot
  std::span<const int> top;
  if (candidates) {
    top = *candidates;
    bits::clear_words(mask, static_cast<std::size_t>(words));
    for (const int a : top) bits::set_bit(mask, static_cast<std::size_t>(a));
  } else {
    int* universe = ctx.cand_at(c + 2);
    for (int i = 0; i < n; ++i) universe[i] = i;
    bits::fill_prefix(mask, static_cast<std::size_t>(n), static_cast<std::size_t>(words));
    top = std::span<const int>(universe, static_cast<std::size_t>(n));
  }
  if (words == 1) {
    return triangle_growth ? search_cliques_tri<1>(ctx, top, mask, c, 0)
                           : search_cliques<1>(ctx, top, mask, c, 0);
  }
  return triangle_growth ? search_cliques_tri<0>(ctx, top, mask, c, 0)
                         : search_cliques<0>(ctx, top, mask, c, 0);
}

/// The build's search_cliques_vertex_all, likewise.
count_t vertex_all(SearchContext& ctx, int c) {
  if (ctx.callback == nullptr && c >= 3) return count_all_by_pivot(ctx, c, std::nullopt);
  const int n = ctx.lg->size();
  const int words = ctx.lg->words();
  // One mask slot per level 0..c-2, plus the universe borrowing slot c.
  ctx.ensure_capacity(n, c + 1, words);
  std::uint64_t* universe = ctx.mask_at(c);
  bits::fill_prefix(universe, static_cast<std::size_t>(n), static_cast<std::size_t>(words));
  return words == 1 ? search_cliques_vertex<1>(ctx, universe, c, 0)
                    : search_cliques_vertex<0>(ctx, universe, c, 0);
}

}  // namespace
}  // namespace c3
