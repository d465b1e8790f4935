#include "clique/bruteforce.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "clique/recursive.hpp"

namespace c3 {
namespace {

struct BruteState {
  const Graph* g;
  std::vector<node_t> stack;
  count_t found = 0;
  // Only the callback and the stop polling (flag + limit) are used, so the
  // limit is honoured exactly as in the recursive searches.
  SearchContext ctx;
  std::atomic<bool> stop{false};
};

/// Extends the current partial clique (st.stack) with `need` more vertices
/// drawn from `cands` (sorted, all adjacent to everything on the stack and
/// id-above the stack top).
void extend(BruteState& st, const std::vector<node_t>& cands, int need) {
  if (st.ctx.poll_stop()) return;
  if (need == 0) {
    ++st.found;
    if (st.ctx.callback != nullptr && !(*st.ctx.callback)(std::span<const node_t>(st.stack)))
      st.ctx.request_stop();
    return;
  }
  if (static_cast<int>(cands.size()) < need) return;
  std::vector<node_t> next;
  for (std::size_t i = 0; i < cands.size() && !st.ctx.stopped; ++i) {
    const node_t v = cands[i];
    // next = {w in cands, w > v, w adjacent to v}
    next.clear();
    const auto nbrs = st.g->neighbors(v);
    std::set_intersection(cands.begin() + static_cast<std::ptrdiff_t>(i) + 1, cands.end(),
                          nbrs.begin(), nbrs.end(), std::back_inserter(next));
    st.stack.push_back(v);
    extend(st, next, need - 1);
    st.stack.pop_back();
  }
}

count_t run(const Graph& g, int k, const CliqueCallback* callback, QueryLimit* limit) {
  if (k <= 0) return 0;
  BruteState st;
  st.g = &g;
  st.ctx.callback = callback;
  st.ctx.stop = &st.stop;
  st.ctx.limit = limit;
  std::vector<node_t> all(g.num_nodes());
  for (node_t v = 0; v < g.num_nodes(); ++v) all[v] = v;
  extend(st, all, k);
  return st.found;
}

}  // namespace

count_t brute_force_count(const Graph& g, int k, QueryLimit* limit) {
  return run(g, k, nullptr, limit);
}

count_t brute_force_list(const Graph& g, int k, const CliqueCallback& callback,
                         QueryLimit* limit) {
  return run(g, k, &callback, limit);
}

}  // namespace c3
