// Template implementation of for_each_triangle (kept out of the main header
// for readability).
#pragma once

#include "parallel/parallel.hpp"

namespace c3 {

template <typename F>
void for_each_triangle(const Digraph& dag, F&& f) {
  // One task per source a: for each arc (a, b), merge the sorted out-lists
  // of a and b; every common out-neighbor c closes the triangle a < b < c.
  parallel_for_dynamic(0, dag.num_nodes(), [&](std::size_t src) {
    const node_t a = static_cast<node_t>(src);
    const auto na = dag.out_neighbors(a);
    for (const node_t b : na) {
      const auto nb = dag.out_neighbors(b);
      std::size_t i = 0, j = 0;
      while (i < na.size() && j < nb.size()) {
        if (na[i] < nb[j]) {
          ++i;
        } else if (na[i] > nb[j]) {
          ++j;
        } else {
          f(a, b, na[i]);
          ++i;
          ++j;
        }
      }
    }
  });
}

}  // namespace c3
