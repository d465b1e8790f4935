// Word-level bit manipulation helpers.
//
// The clique engine represents local subgraph adjacency as rows of 64-bit
// words (the paper's "boolean indicator tables", Section 2.2). These helpers
// implement the primitive operations that dominate the inner loops:
// masked intersections, population counts, range masks ("vertices ordered
// between u and v"), and set-bit iteration.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

namespace c3::bits {

inline constexpr int kWordBits = 64;

/// Number of 64-bit words needed to hold `n` bits.
[[nodiscard]] constexpr std::size_t words_for(std::size_t n) noexcept {
  return (n + kWordBits - 1) / kWordBits;
}

[[nodiscard]] constexpr std::uint64_t bit_mask(std::size_t i) noexcept {
  return std::uint64_t{1} << (i % kWordBits);
}

[[nodiscard]] constexpr std::size_t word_index(std::size_t i) noexcept {
  return i / kWordBits;
}

constexpr void set_bit(std::uint64_t* words, std::size_t i) noexcept {
  words[word_index(i)] |= bit_mask(i);
}

constexpr void clear_bit(std::uint64_t* words, std::size_t i) noexcept {
  words[word_index(i)] &= ~bit_mask(i);
}

[[nodiscard]] constexpr bool test_bit(const std::uint64_t* words, std::size_t i) noexcept {
  return (words[word_index(i)] & bit_mask(i)) != 0;
}

/// Zeroes `nwords` words.
constexpr void clear_words(std::uint64_t* words, std::size_t nwords) noexcept {
  for (std::size_t w = 0; w < nwords; ++w) words[w] = 0;
}

/// dst = a & b over `nwords` words.
constexpr void and_into(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t nwords) noexcept {
  for (std::size_t w = 0; w < nwords; ++w) dst[w] = a[w] & b[w];
}

/// dst &= a over `nwords` words.
constexpr void and_assign(std::uint64_t* dst, const std::uint64_t* a, std::size_t nwords) noexcept {
  for (std::size_t w = 0; w < nwords; ++w) dst[w] &= a[w];
}

/// popcount(a) over `nwords` words.
[[nodiscard]] constexpr std::uint64_t popcount(const std::uint64_t* a, std::size_t nwords) noexcept {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < nwords; ++w) total += static_cast<std::uint64_t>(std::popcount(a[w]));
  return total;
}

/// popcount(a & b) over `nwords` words, without materializing the AND.
[[nodiscard]] constexpr std::uint64_t popcount_and(const std::uint64_t* a, const std::uint64_t* b,
                                                   std::size_t nwords) noexcept {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < nwords; ++w)
    total += static_cast<std::uint64_t>(std::popcount(a[w] & b[w]));
  return total;
}

/// popcount(a & b & c) over `nwords` words.
[[nodiscard]] constexpr std::uint64_t popcount_and3(const std::uint64_t* a, const std::uint64_t* b,
                                                    const std::uint64_t* c,
                                                    std::size_t nwords) noexcept {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < nwords; ++w)
    total += static_cast<std::uint64_t>(std::popcount(a[w] & b[w] & c[w]));
  return total;
}

/// Writes the mask of bits in the *exclusive* range (lo, hi) into `dst`
/// (i.e. bits lo+1 .. hi-1). This is the paper's "vertices ordered between
/// the endpoints of an edge" restricted to a bitset universe. `dst` must
/// hold `nwords` words; bits outside the range are zero.
constexpr void between_mask(std::uint64_t* dst, std::size_t lo, std::size_t hi,
                            std::size_t nwords) noexcept {
  clear_words(dst, nwords);
  if (hi <= lo + 1) return;
  const std::size_t first = lo + 1;   // inclusive
  const std::size_t last = hi - 1;    // inclusive
  const std::size_t wfirst = word_index(first);
  const std::size_t wlast = word_index(last);
  const std::uint64_t head = ~std::uint64_t{0} << (first % kWordBits);
  const std::uint64_t tail =
      (last % kWordBits) == 63 ? ~std::uint64_t{0} : ((std::uint64_t{1} << ((last % kWordBits) + 1)) - 1);
  if (wfirst == wlast) {
    dst[wfirst] = head & tail;
    return;
  }
  dst[wfirst] = head;
  for (std::size_t w = wfirst + 1; w < wlast; ++w) dst[w] = ~std::uint64_t{0};
  dst[wlast] = tail;
}

/// Sets the low `n` bits (a full candidate universe of size n).
constexpr void fill_prefix(std::uint64_t* dst, std::size_t n, std::size_t nwords) noexcept {
  const std::size_t full = n / kWordBits;
  for (std::size_t w = 0; w < full; ++w) dst[w] = ~std::uint64_t{0};
  for (std::size_t w = full; w < nwords; ++w) dst[w] = 0;
  if (n % kWordBits != 0) dst[full] = (std::uint64_t{1} << (n % kWordBits)) - 1;
}

/// Calls `f(i)` for every set bit i of `a`, in ascending order.
template <typename F>
constexpr void for_each_bit(const std::uint64_t* a, std::size_t nwords, F&& f) {
  for (std::size_t w = 0; w < nwords; ++w) {
    std::uint64_t word = a[w];
    while (word != 0) {
      const int b = std::countr_zero(word);
      f(w * kWordBits + static_cast<std::size_t>(b));
      word &= word - 1;
    }
  }
}

/// Calls `f(i)` for every set bit of `a & b`, ascending, without
/// materializing the intersection.
template <typename F>
constexpr void for_each_bit_and(const std::uint64_t* a, const std::uint64_t* b, std::size_t nwords,
                                F&& f) {
  for (std::size_t w = 0; w < nwords; ++w) {
    std::uint64_t word = a[w] & b[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      f(w * kWordBits + static_cast<std::size_t>(bit));
      word &= word - 1;
    }
  }
}

/// Fused masked-interval intersect+count: dst = a & b & mask restricted to
/// the *inclusive* bit range [lo, hi], zero outside; returns popcount(dst).
/// This is one recursion step of Algorithm 2 (I' <- I ∩ C(e), where the
/// community of the pair is the common neighborhood restricted to vertices
/// ordered strictly between the endpoints) collapsed into a single pass.
/// When hi < lo the destination is cleared and the count is 0.
constexpr std::uint64_t intersect_interval(const std::uint64_t* a, const std::uint64_t* b,
                                           const std::uint64_t* mask, std::uint64_t* dst,
                                           std::size_t nwords, std::size_t lo,
                                           std::size_t hi) noexcept {
  clear_words(dst, nwords);
  if (hi < lo) return 0;
  const std::size_t wlo = word_index(lo);
  const std::size_t whi = word_index(hi);
  const std::uint64_t head = ~std::uint64_t{0} << (lo % kWordBits);
  const std::uint64_t tail =
      (hi % kWordBits) == 63 ? ~std::uint64_t{0} : ((std::uint64_t{1} << ((hi % kWordBits) + 1)) - 1);
  std::uint64_t count = 0;
  for (std::size_t w = wlo; w <= whi; ++w) {
    std::uint64_t m = a[w] & b[w] & mask[w];
    if (w == wlo) m &= head;
    if (w == whi) m &= tail;
    dst[w] = m;
    count += static_cast<std::uint64_t>(std::popcount(m));
  }
  return count;
}

/// Fused suffix intersect+count: dst = a & mask restricted to bits strictly
/// greater than `x`, zero at and below; returns popcount(dst). One step of
/// the vertex-growth recursions (candidates after x adjacent to x).
constexpr std::uint64_t intersect_above(const std::uint64_t* a, const std::uint64_t* mask,
                                        std::uint64_t* dst, std::size_t nwords,
                                        std::size_t x) noexcept {
  const std::size_t wx = word_index(x);
  for (std::size_t w = 0; w < wx; ++w) dst[w] = 0;
  const std::uint64_t keep =
      (x % kWordBits) == 63 ? 0 : ~std::uint64_t{0} << ((x % kWordBits) + 1);
  std::uint64_t count = 0;
  dst[wx] = a[wx] & mask[wx] & keep;
  count += static_cast<std::uint64_t>(std::popcount(dst[wx]));
  for (std::size_t w = wx + 1; w < nwords; ++w) {
    dst[w] = a[w] & mask[w];
    count += static_cast<std::uint64_t>(std::popcount(dst[w]));
  }
  return count;
}

}  // namespace c3::bits
