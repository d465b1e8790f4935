// The -mpopcnt build of Algorithm 2 (recursive_impl.hpp). Compiled with
// -mpopcnt only for this file (see src/CMakeLists.txt), so the rest of the
// library stays baseline and the binary still starts on hardware without
// POPCNT: util/bitkernels.cpp offers this build only when the CPU has it.
#include "clique/recursive_impl.hpp"

namespace c3::detail {

#if defined(C3_SEARCH_POPCNT)

const SearchBuild* popcnt_search_build() noexcept {
  static constexpr SearchBuild kPopcntBuild{cliques_all, vertex_all};
  return &kPopcntBuild;
}

#else

const SearchBuild* popcnt_search_build() noexcept { return nullptr; }

#endif

}  // namespace c3::detail
