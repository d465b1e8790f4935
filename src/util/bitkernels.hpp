// The search build selector and the bit-row storage contract.
//
// Every search half of the clique engine bottoms out in AND + popcount over
// 64-bit word rows (the paper's "boolean indicator tables", Section 2.2).
// Algorithm 2's recursions run those ops in their own inline word loops
// (clique/recursive_impl.hpp), compiled twice: baseline, and on x86-64 with
// -mpopcnt (DESIGN.md §7, "Search builds"). The one ISA decision left is
// which of the two builds runs:
//
//   * KernelBackend::Scalar runs the baseline build; KernelBackend::Popcnt
//     runs the -mpopcnt build and is available only when that build is
//     compiled in and the CPU has POPCNT. The best available backend is
//     picked once at startup, overridable with the `C3_KERNEL` environment
//     variable (scalar|auto) and at runtime via set_kernel_backend() for
//     tests and ablation benches.
//
//   * kernel_table(): the reference ops of util/bitwords.hpp behind function
//     pointers, for microbenches that time them out of line.
//
// Storage contract: callers lay rows out with kernel_stride_words(n) words
// per row — exactly words_for(n) — inside KernelWords storage (64-byte
// aligned). Bits past n in a row's last word MUST stay zero: every helper
// here and in bitwords.hpp preserves that invariant, and the popcounts rely
// on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "util/bitwords.hpp"

namespace c3::bits {

enum class KernelBackend : int { Scalar = 0, Popcnt = 1 };

/// The reference bit ops behind function pointers; semantics match the
/// synonymous bits:: helpers exactly.
struct KernelTable {
  std::uint64_t (*popcount_and)(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t nwords);
  /// dst = a & b & mask & [lo, hi] (inclusive bit range); returns |dst|.
  std::uint64_t (*intersect_interval)(const std::uint64_t* a, const std::uint64_t* b,
                                      const std::uint64_t* mask, std::uint64_t* dst,
                                      std::size_t nwords, std::size_t lo, std::size_t hi);
};

/// The backend the search runs under: Scalar until the startup selection.
[[nodiscard]] KernelBackend active_kernel_backend() noexcept;

/// "scalar" or "popcnt": the name of the search build the backend runs.
[[nodiscard]] const char* kernel_backend_name(KernelBackend b) noexcept;

/// The table for `b`, or nullptr when `b` is unavailable on this host. Both
/// backends share the reference table.
[[nodiscard]] const KernelTable* kernel_table(KernelBackend b) noexcept;

/// Every backend the host can run, best first; always ends with Scalar.
[[nodiscard]] std::vector<KernelBackend> available_kernel_backends();

/// The backend the startup selection picks absent an override.
[[nodiscard]] KernelBackend best_kernel_backend() noexcept;

/// Installs `b` as the active backend; returns false (and changes nothing)
/// when the backend is unavailable on this host. Not meant to race with
/// in-flight queries — flip it between runs (tests, ablation benches).
bool set_kernel_backend(KernelBackend b) noexcept;

/// Parses "scalar|auto" (case-insensitive; "auto" = best available) into
/// `out`; false on any other name.
[[nodiscard]] bool parse_kernel_backend(const char* name, KernelBackend& out) noexcept;

// ------------------------------------------------------- storage contract

inline constexpr std::size_t kKernelAlignBytes = 64;  ///< row storage alignment

/// Row stride in words for a universe of `nbits` bits: exactly the words
/// that hold it.
[[nodiscard]] constexpr std::size_t kernel_stride_words(std::size_t nbits) noexcept {
  return words_for(nbits);
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
