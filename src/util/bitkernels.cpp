#include "util/bitkernels.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include <strings.h>

namespace c3::bits {
namespace {

// Thin non-inline shims over the bitwords.hpp reference helpers so the table
// entries have external-call-compatible addresses.

std::uint64_t reference_popcount_and(const std::uint64_t* a, const std::uint64_t* b,
                                     std::size_t nwords) {
  return popcount_and(a, b, nwords);
}

std::uint64_t reference_intersect_interval(const std::uint64_t* a, const std::uint64_t* b,
                                           const std::uint64_t* mask, std::uint64_t* dst,
                                           std::size_t nwords, std::size_t lo, std::size_t hi) {
  return intersect_interval(a, b, mask, dst, nwords, lo, hi);
}

constexpr KernelTable kReferenceTable{reference_popcount_and, reference_intersect_interval};

/// Whether the -mpopcnt search build (clique/recursive_popcnt.cpp) is
/// compiled in and the CPU can run it.
bool popcnt_available() noexcept {
#if defined(C3_SEARCH_POPCNT)
  return __builtin_cpu_supports("popcnt");
#else
  return false;
#endif
}

// Scalar before the startup selection below runs: the baseline build
// starts on every host.
constinit std::atomic<KernelBackend> g_active{KernelBackend::Scalar};

}  // namespace

const KernelTable* kernel_table(KernelBackend b) noexcept {
  if (b == KernelBackend::Popcnt && !popcnt_available()) return nullptr;
  return &kReferenceTable;
}

KernelBackend active_kernel_backend() noexcept {
  return g_active.load(std::memory_order_acquire);
}

const char* kernel_backend_name(KernelBackend b) noexcept {
  return b == KernelBackend::Popcnt ? "popcnt" : "scalar";
}

std::vector<KernelBackend> available_kernel_backends() {
  if (popcnt_available()) return {KernelBackend::Popcnt, KernelBackend::Scalar};
  return {KernelBackend::Scalar};
}

KernelBackend best_kernel_backend() noexcept {
  return popcnt_available() ? KernelBackend::Popcnt : KernelBackend::Scalar;
}

bool set_kernel_backend(KernelBackend b) noexcept {
  if (kernel_table(b) == nullptr) return false;
  g_active.store(b, std::memory_order_release);
  return true;
}

bool parse_kernel_backend(const char* name, KernelBackend& out) noexcept {
  if (name == nullptr) return false;
  if (strcasecmp(name, "scalar") == 0) {
    out = KernelBackend::Scalar;
  } else if (strcasecmp(name, "auto") == 0) {
    out = best_kernel_backend();
  } else {
    return false;
  }
  return true;
}

namespace {

// Startup selection: C3_KERNEL=scalar pins the baseline build, anything
// else takes the best backend the host supports. Runs once before main via
// a static initializer; any search earlier than that runs the baseline.
struct StartupSelection {
  StartupSelection() noexcept {
    KernelBackend pick = best_kernel_backend();
    if (const char* env = std::getenv("C3_KERNEL"); env != nullptr && env[0] != '\0') {
      if (!parse_kernel_backend(env, pick)) {
        std::fprintf(stderr, "c3: ignoring unknown C3_KERNEL='%s' (want scalar|auto)\n", env);
      }
    }
    (void)set_kernel_backend(pick);
  }
};

const StartupSelection g_startup_selection{};

}  // namespace
}  // namespace c3::bits
