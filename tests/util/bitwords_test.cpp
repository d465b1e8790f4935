// Tests for the word-level bitset helpers that carry the clique engine, and
// backend-parity property tests for the SIMD kernel substrate built on them.
#include "util/bitwords.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "util/bitkernels.hpp"

namespace c3 {
namespace {

TEST(Bitwords, SetTestClearAcrossWordBoundaries) {
  std::vector<std::uint64_t> w(3, 0);
  for (const std::size_t i : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 191u}) {
    EXPECT_FALSE(bits::test_bit(w.data(), i));
    bits::set_bit(w.data(), i);
    EXPECT_TRUE(bits::test_bit(w.data(), i));
  }
  bits::clear_bit(w.data(), 64);
  EXPECT_FALSE(bits::test_bit(w.data(), 64));
  EXPECT_TRUE(bits::test_bit(w.data(), 63));
  EXPECT_TRUE(bits::test_bit(w.data(), 65));
}

TEST(Bitwords, WordsForRounding) {
  EXPECT_EQ(bits::words_for(0), 0u);
  EXPECT_EQ(bits::words_for(1), 1u);
  EXPECT_EQ(bits::words_for(64), 1u);
  EXPECT_EQ(bits::words_for(65), 2u);
  EXPECT_EQ(bits::words_for(128), 2u);
  EXPECT_EQ(bits::words_for(129), 3u);
}

TEST(Bitwords, PopcountAndVariants) {
  std::vector<std::uint64_t> a(2, 0), b(2, 0), c(2, 0);
  for (std::size_t i = 0; i < 128; i += 2) bits::set_bit(a.data(), i);   // evens
  for (std::size_t i = 0; i < 128; i += 3) bits::set_bit(b.data(), i);   // multiples of 3
  for (std::size_t i = 0; i < 128; i += 4) bits::set_bit(c.data(), i);   // multiples of 4
  EXPECT_EQ(bits::popcount(a.data(), 2), 64u);
  EXPECT_EQ(bits::popcount_and(a.data(), b.data(), 2), 22u);   // multiples of 6 in [0,128)
  EXPECT_EQ(bits::popcount_and3(a.data(), b.data(), c.data(), 2), 11u);  // multiples of 12
}

/// Reference implementation of between_mask.
std::vector<std::uint64_t> between_reference(std::size_t lo, std::size_t hi, std::size_t nwords) {
  std::vector<std::uint64_t> w(nwords, 0);
  for (std::size_t i = lo + 1; i < hi; ++i) bits::set_bit(w.data(), i);
  return w;
}

TEST(Bitwords, BetweenMaskMatchesReferenceExhaustively) {
  const std::size_t nbits = 130;
  const std::size_t nwords = bits::words_for(nbits);
  std::vector<std::uint64_t> got(nwords);
  for (std::size_t lo = 0; lo < nbits; lo += 7) {
    for (std::size_t hi = lo; hi < nbits; hi += 5) {
      bits::between_mask(got.data(), lo, hi, nwords);
      ASSERT_EQ(got, between_reference(lo, hi, nwords)) << "lo=" << lo << " hi=" << hi;
    }
  }
}

TEST(Bitwords, BetweenMaskBoundaryBits) {
  std::vector<std::uint64_t> got(2);
  bits::between_mask(got.data(), 62, 66, 2);  // spans the word boundary
  EXPECT_EQ(got, between_reference(62, 66, 2));
  bits::between_mask(got.data(), 63, 64, 2);  // empty interval
  EXPECT_EQ(got, between_reference(63, 64, 2));
  bits::between_mask(got.data(), 0, 127, 2);
  EXPECT_EQ(got, between_reference(0, 127, 2));
}

TEST(Bitwords, FillPrefix) {
  std::vector<std::uint64_t> w(3, ~std::uint64_t{0});
  bits::fill_prefix(w.data(), 70, 3);
  for (std::size_t i = 0; i < 70; ++i) ASSERT_TRUE(bits::test_bit(w.data(), i));
  for (std::size_t i = 70; i < 192; ++i) ASSERT_FALSE(bits::test_bit(w.data(), i));
  bits::fill_prefix(w.data(), 128, 3);
  EXPECT_EQ(bits::popcount(w.data(), 3), 128u);
}

TEST(Bitwords, ForEachBitAscendingOrder) {
  std::vector<std::uint64_t> w(2, 0);
  const std::vector<std::size_t> expect = {0, 5, 63, 64, 100, 127};
  for (const auto i : expect) bits::set_bit(w.data(), i);
  std::vector<std::size_t> got;
  bits::for_each_bit(w.data(), 2, [&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, expect);
}

TEST(Bitwords, ForEachBitAndIntersects) {
  std::vector<std::uint64_t> a(2, 0), b(2, 0);
  bits::set_bit(a.data(), 3);
  bits::set_bit(a.data(), 70);
  bits::set_bit(a.data(), 90);
  bits::set_bit(b.data(), 70);
  bits::set_bit(b.data(), 90);
  bits::set_bit(b.data(), 120);
  std::vector<std::size_t> got;
  bits::for_each_bit_and(a.data(), b.data(), 2, [&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, (std::vector<std::size_t>{70, 90}));
}

TEST(Bitwords, AndIntoAndAssign) {
  std::vector<std::uint64_t> a = {0xF0F0, 0xFF}, b = {0xFF00, 0x0F}, dst(2);
  bits::and_into(dst.data(), a.data(), b.data(), 2);
  EXPECT_EQ(dst, (std::vector<std::uint64_t>{0xF000, 0x0F}));
  bits::and_assign(a.data(), b.data(), 2);
  EXPECT_EQ(a, dst);
}

TEST(Bitwords, IntersectIntervalScalarReference) {
  // dst = a & b & mask over the inclusive [lo, hi]; verified bit by bit.
  const std::size_t nwords = 3;
  std::vector<std::uint64_t> a(nwords, 0), b(nwords, 0), mask(nwords, 0), dst(nwords, ~0ull);
  for (std::size_t i = 0; i < 192; i += 2) bits::set_bit(a.data(), i);
  for (std::size_t i = 0; i < 192; i += 3) bits::set_bit(b.data(), i);
  bits::fill_prefix(mask.data(), 190, nwords);
  for (const std::size_t lo : {0u, 1u, 63u, 64u, 65u, 127u, 128u}) {
    for (const std::size_t hi : {0u, 62u, 63u, 64u, 126u, 127u, 128u, 191u}) {
      const std::uint64_t got =
          bits::intersect_interval(a.data(), b.data(), mask.data(), dst.data(), nwords, lo, hi);
      std::uint64_t want = 0;
      for (std::size_t i = 0; i < 192; ++i) {
        const bool in = i >= lo && i <= hi && bits::test_bit(a.data(), i) &&
                        bits::test_bit(b.data(), i) && bits::test_bit(mask.data(), i);
        ASSERT_EQ(bits::test_bit(dst.data(), i), in) << "lo=" << lo << " hi=" << hi << " i=" << i;
        if (in) ++want;
      }
      ASSERT_EQ(got, want) << "lo=" << lo << " hi=" << hi;
    }
  }
}

TEST(Bitwords, IntersectAboveScalarReference) {
  const std::size_t nwords = 2;
  std::vector<std::uint64_t> a(nwords, 0), mask(nwords, 0), dst(nwords, ~0ull);
  for (std::size_t i = 0; i < 128; i += 2) bits::set_bit(a.data(), i);
  bits::fill_prefix(mask.data(), 120, nwords);
  for (const std::size_t x : {0u, 1u, 62u, 63u, 64u, 65u, 126u, 127u}) {
    const std::uint64_t got = bits::intersect_above(a.data(), mask.data(), dst.data(), nwords, x);
    std::uint64_t want = 0;
    for (std::size_t i = 0; i < 128; ++i) {
      const bool in = i > x && bits::test_bit(a.data(), i) && bits::test_bit(mask.data(), i);
      ASSERT_EQ(bits::test_bit(dst.data(), i), in) << "x=" << x << " i=" << i;
      if (in) ++want;
    }
    ASSERT_EQ(got, want) << "x=" << x;
  }
}

// ------------------------------------------------------------------------
// Search build selector, row storage contract, and the reference table.

TEST(Bitkernels, KernelStrideWords) {
  EXPECT_EQ(bits::kernel_stride_words(0), 0u);
  EXPECT_EQ(bits::kernel_stride_words(1), 1u);
  EXPECT_EQ(bits::kernel_stride_words(64), 1u);
  EXPECT_EQ(bits::kernel_stride_words(256), 4u);
  EXPECT_EQ(bits::kernel_stride_words(257), 5u);  // rows are exact at every width
  EXPECT_EQ(bits::kernel_stride_words(512), 8u);
  EXPECT_EQ(bits::kernel_stride_words(513), 9u);
  EXPECT_EQ(bits::kernel_stride_words(1024), 16u);
}

TEST(Bitkernels, BackendNamesRoundTrip) {
  EXPECT_STREQ(bits::kernel_backend_name(bits::KernelBackend::Scalar), "scalar");
  EXPECT_STREQ(bits::kernel_backend_name(bits::KernelBackend::Popcnt), "popcnt");
  // C3_KERNEL takes scalar|auto only: the one choice is whether to pin the
  // baseline build.
  bits::KernelBackend out = bits::KernelBackend::Popcnt;
  ASSERT_TRUE(bits::parse_kernel_backend("Scalar", out));
  EXPECT_EQ(out, bits::KernelBackend::Scalar);
  EXPECT_TRUE(bits::parse_kernel_backend("AUTO", out));
  EXPECT_EQ(out, bits::best_kernel_backend());
  EXPECT_EQ(out, bits::available_kernel_backends().front());
  for (const char* rejected : {"popcnt", "avx2", "avx512", "neon", "sse9", ""}) {
    EXPECT_FALSE(bits::parse_kernel_backend(rejected, out)) << rejected;
  }
  EXPECT_FALSE(bits::parse_kernel_backend(nullptr, out));
}

TEST(Bitkernels, ScalarTableAlwaysAvailable) {
  ASSERT_NE(bits::kernel_table(bits::KernelBackend::Scalar), nullptr);
  const auto avail = bits::available_kernel_backends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.back(), bits::KernelBackend::Scalar);
}

TEST(Bitkernels, SetKernelBackendRoundTrip) {
  const bits::KernelBackend before = bits::active_kernel_backend();
  ASSERT_TRUE(bits::set_kernel_backend(bits::KernelBackend::Scalar));
  EXPECT_EQ(bits::active_kernel_backend(), bits::KernelBackend::Scalar);
  ASSERT_TRUE(bits::set_kernel_backend(before));
  EXPECT_EQ(bits::active_kernel_backend(), before);
}

TEST(Bitkernels, KernelAllocatorAlignment) {
  bits::KernelWords v(100, 0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % bits::kKernelAlignBytes, 0u);
}

/// Property suite: the table of every backend the host can run must agree
/// bit-for-bit with the bitwords.hpp helpers on randomized inputs, across
/// word-boundary universes, empty masks, and interval edge cases.
class BackendParity : public ::testing::TestWithParam<bits::KernelBackend> {
 protected:
  const bits::KernelTable& table() const { return *bits::kernel_table(GetParam()); }
};

TEST_P(BackendParity, MatchesScalarOnRandomInputs) {
  std::mt19937_64 rng(12345);
  const bits::KernelTable& t = table();
  // Word-boundary universes in bits, narrow and wide.
  for (const std::size_t nbits : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 255u, 256u, 257u, 511u,
                                  512u, 640u, 1024u, 1031u}) {
    const std::size_t nwords = bits::words_for(nbits);
    bits::KernelWords a(nwords), b(nwords), c(nwords), want_dst(nwords), got_dst(nwords);
    for (int round = 0; round < 8; ++round) {
      for (std::size_t w = 0; w < nwords; ++w) {
        // Mix densities: full random, sparse, empty.
        const std::uint64_t r = rng();
        a[w] = round == 7 ? 0 : r;
        b[w] = rng() & (round >= 4 ? rng() : ~0ull);
        c[w] = rng();
      }
      // Trim to the universe so the bits past it stay zero like real rows.
      if (nbits % 64 != 0) {
        const std::uint64_t last = (std::uint64_t{1} << (nbits % 64)) - 1;
        a[nwords - 1] &= last;
        b[nwords - 1] &= last;
        c[nwords - 1] &= last;
      }

      ASSERT_EQ(t.popcount_and(a.data(), b.data(), nwords),
                bits::popcount_and(a.data(), b.data(), nwords));

      // Interval kernel across boundary-straddling and empty intervals.
      for (const std::size_t lo : {std::size_t{0}, std::size_t{1}, nbits / 2, nbits - 1}) {
        for (const std::size_t hi : {std::size_t{0}, nbits / 2, nbits - 1}) {
          const std::uint64_t want = bits::intersect_interval(a.data(), b.data(), c.data(),
                                                              want_dst.data(), nwords, lo, hi);
          const std::uint64_t got =
              t.intersect_interval(a.data(), b.data(), c.data(), got_dst.data(), nwords, lo, hi);
          ASSERT_EQ(got, want) << "nbits=" << nbits << " lo=" << lo << " hi=" << hi;
          ASSERT_EQ(got_dst, want_dst) << "nbits=" << nbits << " lo=" << lo << " hi=" << hi;
        }
      }
    }
  }
}

TEST_P(BackendParity, EmptyMasksAndAllOnes) {
  const bits::KernelTable& t = table();
  for (const std::size_t nwords : {1u, 2u, 8u, 16u, 17u}) {
    const bits::KernelWords zero(nwords, 0), ones(nwords, ~0ull);
    bits::KernelWords dst(nwords, 0xDEAD);
    EXPECT_EQ(t.popcount_and(ones.data(), zero.data(), nwords), 0u);
    EXPECT_EQ(t.popcount_and(ones.data(), ones.data(), nwords), nwords * 64);
    EXPECT_EQ(t.intersect_interval(ones.data(), ones.data(), zero.data(), dst.data(), nwords, 0,
                                   nwords * 64 - 1),
              0u);
    EXPECT_EQ(dst, zero);
    // hi < lo clears and returns 0.
    dst.assign(nwords, 0xBEEF);
    EXPECT_EQ(t.intersect_interval(ones.data(), ones.data(), ones.data(), dst.data(), nwords, 5, 4),
              0u);
    EXPECT_EQ(dst, zero);
  }
}

std::string backend_param_name(const ::testing::TestParamInfo<bits::KernelBackend>& info) {
  return bits::kernel_backend_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllAvailable, BackendParity,
                         ::testing::ValuesIn(bits::available_kernel_backends()),
                         backend_param_name);

}  // namespace
}  // namespace c3
