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

/// The closed form's out-of-line part, reached once a set's lowest member
/// `first` is adjacent to all size - 1 others: tests the members above it,
/// stopping at the first that is not, and returns closed_form_cliques for a
/// complete set. Kept out of the recursions' bodies, which it would
/// otherwise bloat on every call.
template <int kWords>
[[gnu::noinline]] std::optional<count_t> complete_set_count(const LocalGraph& lg,
                                                           const std::uint64_t* mask,
                                                           std::size_t words, std::uint64_t size,
                                                           std::size_t first, int c,
                                                           LocalCounters& ctr) noexcept {
  const std::size_t from = first + 1;
  for (std::size_t w = word_index(from); w < words; ++w) {
    std::uint64_t m = mask[w];
    if (w == word_index(from)) m &= ~std::uint64_t{0} << (from % bits::kWordBits);
    for (; m != 0; m &= m - 1) {
      const std::size_t y = w * bits::kWordBits + static_cast<std::size_t>(__builtin_ctzll(m));
      ctr.intersection_words += words;
      if (popcount_and(lg.row(static_cast<int>(y)), mask, words) + 1 != size) return std::nullopt;
    }
  }
  return closed_form_cliques(size, c, ctr);
}

/// Counting's closed form (DESIGN.md, "Counting closed form"): a complete
/// candidate set of `size` members, the lowest `first`, holds exactly
/// C(size, c) c-cliques, returned without walking it. Inline, one masked
/// popcount tests `first`; nullopt — walk the set — when it is incomplete or
/// C(size, c) overflows count_t.
template <int kWords>
std::optional<count_t> closed_form_count(const LocalGraph& lg, const std::uint64_t* mask,
                                         std::size_t words, std::uint64_t size,
                                         std::size_t first, int c, LocalCounters& ctr) noexcept {
  ctr.intersection_words += words;
  if (popcount_and(lg.row(static_cast<int>(first)), mask, words) + 1 != size) return std::nullopt;
  return complete_set_count<kWords>(lg, mask, words, size, first, c, ctr);
}

/// Emits one complete clique from the listing stack; returns false when the
/// callback requests early termination.
bool emit(SearchContext& ctx) {
  return (*ctx.callback)(std::span<const node_t>(ctx.clique_stack));
}

/// Pair growth (Algorithm 2): counts (and in listing mode reports) the
/// c-cliques of ctx.lg restricted to candidates `I` (sorted ascending local
/// ids) with membership mask `I_mask`. `level` indexes the scratch arrays
/// and must leave room for ceil(c/2) further levels.
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

  // A count takes a complete I in closed form instead of walking it.
  if (!listing && c >= 3 && !I.empty()) {
    if (const std::optional<count_t> n = closed_form_count<kWords>(
            lg, I_mask, words, I.size(), static_cast<std::size_t>(I[0]), c, ctr))
      return *n;
  }

  // Base case c == 2 (line 4): every edge inside I is a clique.
  if (c == 2) {
    if (!listing) {
      count_t twice = 0;
      for (const int a : I) twice += popcount_and(lg.row(a), I_mask, words);
      ctr.intersection_words += I.size() * words;
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

      if (c - 2 == 1 && !listing) {
        // Leaf shortcut: each surviving candidate completes one clique.
        ++ctr.recursive_calls;
        ctr.leaf_work += static_cast<count_t>(isz);
        total += static_cast<count_t>(isz);
        continue;
      }
      if (c - 2 == 2 && !listing) {
        // Leaf shortcut: count the edges inside the community mask directly.
        ++ctr.recursive_calls;
        count_t twice = 0;
        bits::for_each_bit(community, words, [&](std::size_t x) {
          twice += popcount_and(lg.row(static_cast<int>(x)), community, words);
        });
        ctr.intersection_words += static_cast<count_t>(isz) * static_cast<count_t>(words);
        ctr.leaf_work += twice / 2;
        total += twice / 2;
        continue;
      }

      // Materialize the new candidate array (ascending == rank order) and
      // recurse with budget c - 2.
      int* next = ctx.cand_at(level);
      int pos = 0;
      bits::for_each_bit(community, words,
                         [&](std::size_t x) { next[pos++] = static_cast<int>(x); });
      if (listing) {
        ctx.clique_stack.push_back(ctx.member_to_orig[a]);
        ctx.clique_stack.push_back(ctx.member_to_orig[b]);
      }
      add_count(total,
                search_cliques<kWords>(ctx, std::span<const int>(next, static_cast<std::size_t>(pos)),
                                       community, c - 2, level + 1),
                ctr);
      if (listing) {
        ctx.clique_stack.pop_back();
        ctx.clique_stack.pop_back();
      }
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
  // The pair-growth bases already handle c <= 3 (a triangle is counted at
  // its supporting pair with one popcount).
  if (c <= 3) return search_cliques<kWords>(ctx, I, I_mask, c, level);

  LocalCounters& ctr = *ctx.ctr;
  ++ctr.recursive_calls;
  if (ctx.poll_stop()) return 0;

  const LocalGraph& lg = *ctx.lg;
  const std::size_t words = row_words<kWords>(lg);
  const bool listing = ctx.callback != nullptr;
  if (!listing && !I.empty()) {
    if (const std::optional<count_t> n = closed_form_count<kWords>(
            lg, I_mask, words, I.size(), static_cast<std::size_t>(I[0]), c, ctr))
      return *n;
  }
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

        if (c - 3 == 1 && !listing) {
          ++ctr.recursive_calls;
          ctr.leaf_work += isz;
          total += isz;
          return;
        }
        int* next = ctx.cand_at(level);
        int pos = 0;
        bits::for_each_bit(inner, words,
                           [&](std::size_t y) { next[pos++] = static_cast<int>(y); });
        if (listing) {
          ctx.clique_stack.push_back(ctx.member_to_orig[a]);
          ctx.clique_stack.push_back(ctx.member_to_orig[b]);
          ctx.clique_stack.push_back(ctx.member_to_orig[x]);
        }
        add_count(total,
                  search_cliques_tri<kWords>(
                      ctx, std::span<const int>(next, static_cast<std::size_t>(pos)), inner,
                      c - 3, level + 2),
                  ctr);
        if (listing) {
          ctx.clique_stack.pop_back();
          ctx.clique_stack.pop_back();
          ctx.clique_stack.pop_back();
        }
      });
    }
  }
  return total;
}

/// Vertex growth: pick the next clique vertex x ascending (= respecting the
/// orientation), descend into mask ∩ N(x) ∩ {> x} with c - 1. `size` is
/// |mask|, handed down by the caller that built it. `level` indexes the mask
/// scratch and must leave room for c - 2 further levels.
template <int kWords>
count_t search_cliques_vertex(SearchContext& ctx, const std::uint64_t* mask, std::uint64_t size,
                              int c, int level) {
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
  // A count takes a complete mask in closed form. Testing the lowest
  // member first, at the call's entry rather than inside the loop below,
  // keeps the loop exactly as lean as a listing's.
  if (!listing && c >= 3 && size > 0) {
    std::size_t w0 = 0;
    if constexpr (kWords != 1) {
      while (mask[w0] == 0) ++w0;
    }
    const std::size_t first =
        w0 * bits::kWordBits + static_cast<std::size_t>(__builtin_ctzll(mask[w0]));
    if (const std::optional<count_t> n =
            closed_form_count<kWords>(lg, mask, words, size, first, c, ctr))
      return *n;
  }
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
      if (listing) ctx.clique_stack.push_back(ctx.member_to_orig[x]);
      add_count(total, search_cliques_vertex<kWords>(ctx, next, isz, c - 1, level + 1), ctr);
      if (listing) ctx.clique_stack.pop_back();
    }
  });
  return total;
}

/// The build's search_cliques_all: sizes the scratch, builds the top-level
/// candidate array and mask, then runs the one-word instantiation when the
/// universe fits one word.
count_t cliques_all(SearchContext& ctx, int c, bool triangle_growth,
                    std::optional<std::span<const int>> candidates) {
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
  const int n = ctx.lg->size();
  const int words = ctx.lg->words();
  // One mask slot per level 0..c-2, plus the universe borrowing slot c.
  ctx.ensure_capacity(n, c + 1, words);
  std::uint64_t* universe = ctx.mask_at(c);
  bits::fill_prefix(universe, static_cast<std::size_t>(n), static_cast<std::size_t>(words));
  const auto size = static_cast<std::uint64_t>(n);
  return words == 1 ? search_cliques_vertex<1>(ctx, universe, size, c, 0)
                    : search_cliques_vertex<0>(ctx, universe, size, c, 0);
}

}  // namespace
}  // namespace c3
