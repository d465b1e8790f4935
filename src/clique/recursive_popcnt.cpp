// The -mpopcnt build of Algorithm 2 (recursive_impl.hpp). Compiled with
// -mpopcnt only for this file and gated behind C3_SEARCH_POPCNT (see
// src/CMakeLists.txt), like the bitkernels_<isa>.cpp backends, so the rest
// of the library stays baseline and the binary still starts on hardware
// without POPCNT.
#include "clique/recursive_impl.hpp"

namespace c3::detail {

#if defined(C3_SEARCH_POPCNT)

const SearchBuild* popcnt_search_build() noexcept {
  static constexpr SearchBuild kPopcntBuild{cliques_all, vertex_all, "popcnt"};
  return __builtin_cpu_supports("popcnt") ? &kPopcntBuild : nullptr;
}

#else

const SearchBuild* popcnt_search_build() noexcept { return nullptr; }

#endif

}  // namespace c3::detail
