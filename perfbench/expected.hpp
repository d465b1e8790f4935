// Clique counts pinned for the default seed: the sweep cross-checks the four
// algorithms against each other on every seed, and against these on the
// default one, so a change that moves every algorithm's answer the same way
// still fails.
#pragma once

#include <string_view>

#include "graph/types.hpp"

namespace perfbench {

struct PinnedCount {
  std::string_view graph;
  int k;
  c3::count_t count;
};

inline constexpr PinnedCount kPinnedCounts[] = {
    {"dblp", 6, 2320401},
    {"dblp", 7, 3975616},
    {"dblp", 8, 5647347},
    {"dblp", 9, 6682201},
    {"dblp", 10, 6600269},
    {"chebyshev4", 6, 3233128},
    {"chebyshev4", 7, 6083211},
    {"chebyshev4", 8, 8964690},
    {"chebyshev4", 9, 10480530},
    {"chebyshev4", 10, 9789403},
    {"jester2", 6, 643892},
    {"jester2", 7, 915158},
    {"jester2", 8, 1056162},
    {"jester2", 9, 977017},
    {"jester2", 10, 718561},
    {"orkut", 6, 686378},
    {"orkut", 7, 1244624},
    {"orkut", 8, 1904730},
    {"orkut", 9, 2453153},
    {"orkut", 10, 2661535},
};

/// The pinned count of (graph, k); 0 when none is pinned.
inline c3::count_t pinned_count(std::string_view graph, int k) {
  for (const PinnedCount& p : kPinnedCounts) {
    if (p.graph == graph && p.k == k) return p.count;
  }
  return 0;
}

}  // namespace perfbench
