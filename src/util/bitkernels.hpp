// SIMD bit-kernel substrate with runtime CPU dispatch.
//
// Every search half of the clique engine bottoms out in the same handful of
// operations over 64-bit word rows (the paper's "boolean indicator tables",
// Section 2.2): masked AND, AND+popcount, fused interval/suffix intersection,
// and set-bit iteration. This header exposes the dispatch and the layout it
// expects:
//
//   * `bits::kernels()` — a function-pointer table selected once at startup
//     from the best backend the host CPU supports (AVX-512-VPOPCNTDQ > AVX2 >
//     NEON > scalar), overridable with the `C3_KERNEL` environment variable
//     (scalar|avx2|avx512|neon|auto) and at runtime via set_kernel_backend()
//     for tests and ablation benches. The scalar backend is always compiled
//     and is bit-for-bit the reference implementation in util/bitwords.hpp.
//
//   * the storage contract below. Callers run rows of up to
//     kKernelInlineWords words inline (a dispatch call costs more than the
//     op itself at that size) and send wider rows through the table; the
//     search's narrow-row paths live in clique/recursive_impl.hpp.
//
// Alignment/stride contract (DESIGN.md "Kernel substrate"): callers lay rows
// out with kernel_stride_words(n) words per row inside KernelWords storage
// (64-byte aligned). Wide rows are padded to the 512-bit vector width so the
// wide kernels' main loops are tail-free; padding words MUST stay zero —
// every helper here and in bitwords.hpp preserves that invariant, and the
// popcounts rely on it.
//
// Adding a backend: implement the eight KernelTable entries in a new
// bitkernels_<isa>.cpp behind a C3_BITKERNELS_<ISA> compile definition (see
// src/CMakeLists.txt for the per-source flag plumbing), return the table
// from detail::<isa>_table(), and wire CPU detection + the enum value in
// bitkernels.cpp. The parity suite in tests/util/bitwords_test.cpp picks up
// any backend available_kernel_backends() reports automatically.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "util/bitwords.hpp"

namespace c3::bits {

enum class KernelBackend : int { Scalar = 0, AVX2 = 1, AVX512 = 2, NEON = 3 };

/// The dispatchable bit-kernel set. All pointers are always non-null in an
/// installed table. Semantics match the synonymous bits:: helpers exactly
/// (the scalar table *is* those helpers); `nwords` never needs to be a
/// multiple of the vector width — vector backends run a scalar tail.
struct KernelTable {
  void (*and_into)(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
                   std::size_t nwords);
  void (*and_assign)(std::uint64_t* dst, const std::uint64_t* a, std::size_t nwords);
  std::uint64_t (*popcount)(const std::uint64_t* a, std::size_t nwords);
  std::uint64_t (*popcount_and)(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t nwords);
  std::uint64_t (*popcount_and3)(const std::uint64_t* a, const std::uint64_t* b,
                                 const std::uint64_t* c, std::size_t nwords);
  /// dst = a & b & mask & [lo, hi] (inclusive bit range); returns |dst|.
  std::uint64_t (*intersect_interval)(const std::uint64_t* a, const std::uint64_t* b,
                                      const std::uint64_t* mask, std::uint64_t* dst,
                                      std::size_t nwords, std::size_t lo, std::size_t hi);
  /// dst = a & mask & {bits > x}; returns |dst|.
  std::uint64_t (*intersect_above)(const std::uint64_t* a, const std::uint64_t* mask,
                                   std::uint64_t* dst, std::size_t nwords, std::size_t x);
  /// fn(ctx, i) for every set bit i of a & b, ascending. Vector backends
  /// skip all-zero blocks without visiting their words bit by bit.
  void (*for_each_bit_and)(const std::uint64_t* a, const std::uint64_t* b, std::size_t nwords,
                           void* ctx, void (*fn)(void* ctx, std::size_t bit));
  KernelBackend backend;
};

namespace detail {
// The active table. constinit-pointed at the scalar table before any static
// initializer runs; re-pointed once at startup by the C3_KERNEL/CPUID
// selection and by set_kernel_backend(). Acquire/release keeps backend
// swaps race-free for TSan (hot-path loads are uncontended and predictable).
extern std::atomic<const KernelTable*> g_active;
}  // namespace detail

/// The active kernel table (never null).
[[nodiscard]] inline const KernelTable& kernels() noexcept {
  return *detail::g_active.load(std::memory_order_acquire);
}

[[nodiscard]] KernelBackend active_kernel_backend() noexcept;
[[nodiscard]] const char* kernel_backend_name(KernelBackend b) noexcept;

/// The table for `b`, or nullptr when the backend is not compiled in or the
/// running CPU lacks the ISA. kernel_table(KernelBackend::Scalar) never
/// fails. Useful for side-by-side backend comparisons without touching the
/// global dispatch (parity tests, microbenches).
[[nodiscard]] const KernelTable* kernel_table(KernelBackend b) noexcept;

/// Every backend the host can actually run, best first; always ends with
/// Scalar.
[[nodiscard]] std::vector<KernelBackend> available_kernel_backends();

/// The backend the startup selection would pick absent any override.
[[nodiscard]] KernelBackend best_kernel_backend() noexcept;

/// Installs `b` as the active backend; returns false (and changes nothing)
/// when the backend is unavailable on this host. Not meant to race with
/// in-flight queries — flip it between runs (tests, ablation benches).
bool set_kernel_backend(KernelBackend b) noexcept;

/// Parses "scalar|avx2|avx512|neon|auto" (case-insensitive; "auto" = best
/// available) into `out`; false on an unknown name.
[[nodiscard]] bool parse_kernel_backend(const char* name, KernelBackend& out) noexcept;

// ------------------------------------------------------- storage contract

inline constexpr std::size_t kKernelAlignBytes = 64;   ///< row storage alignment
inline constexpr std::size_t kKernelWidthWords = 8;    ///< widest vector: 512 bits
inline constexpr std::size_t kKernelInlineWords = 4;   ///< <= this: skip dispatch

/// Row stride in words for a universe of `nbits` bits: exact for narrow rows
/// (<= kKernelInlineWords words, where the ops inline as scalar code and
/// padding would only inflate memory traffic) and rounded up to the 512-bit
/// vector width beyond that, so the wide kernels' main loops cover the whole
/// row without a tail. Padding words must stay zero.
[[nodiscard]] constexpr std::size_t kernel_stride_words(std::size_t nbits) noexcept {
  const std::size_t w = words_for(nbits);
  return w <= kKernelInlineWords
             ? w
             : (w + kKernelWidthWords - 1) & ~(kKernelWidthWords - 1);
}

/// Minimal 64-byte-aligning allocator for the bitset row/mask pools.
template <typename T>
class KernelAllocator {
 public:
  using value_type = T;
  KernelAllocator() noexcept = default;
  template <typename U>
  KernelAllocator(const KernelAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{kKernelAlignBytes}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kKernelAlignBytes});
  }
  friend bool operator==(const KernelAllocator&, const KernelAllocator&) noexcept { return true; }
};

/// 64-byte-aligned word storage for bitset rows and mask pools.
using KernelWords = std::vector<std::uint64_t, KernelAllocator<std::uint64_t>>;

}  // namespace c3::bits
