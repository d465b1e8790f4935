// The baseline build of Algorithm 2 (recursive_impl.hpp) and the dispatch
// between it and the -mpopcnt build in recursive_popcnt.cpp.
#include "clique/recursive_impl.hpp"
#include "util/bitkernels.hpp"

namespace c3 {
namespace {

constexpr detail::SearchBuild kBaselineBuild{cliques_all, vertex_all};

/// The scalar backend runs the baseline build, the popcnt backend the POPCNT
/// build (which set_kernel_backend admits only when it is compiled in).
const detail::SearchBuild& search_build(bits::KernelBackend backend) noexcept {
  if (backend == bits::KernelBackend::Popcnt) {
    if (const detail::SearchBuild* fast = detail::popcnt_search_build()) return *fast;
  }
  return kBaselineBuild;
}

}  // namespace

void SearchContext::ensure_capacity(int gamma, int depth, int words) {
  const auto g = static_cast<std::size_t>(std::max(gamma, 0));
  const auto d = static_cast<std::size_t>(std::max(depth, 1));
  const auto w = static_cast<std::size_t>(std::max(words, 1));
  if (g > cand_stride_ || (g > 0 && d > cand_depth_)) {
    cand_stride_ = std::max(cand_stride_, g);
    cand_depth_ = std::max(cand_depth_, d);
    cand_pool_.assign(cand_depth_ * cand_stride_, 0);
  }
  if (w > mask_stride_ || d > mask_depth_) {
    mask_stride_ = std::max(mask_stride_, w);
    mask_depth_ = std::max(mask_depth_, d);
    mask_pool_.assign(mask_depth_ * mask_stride_, 0);
  }
}

bool SearchContext::limit_expired() noexcept {
  limit_countdown = kLimitStride;
  if (!limit->expired()) return false;
  stop->store(true, std::memory_order_relaxed);
  return true;
}

count_t search_cliques_all(SearchContext& ctx, int c, bool triangle_growth,
                           std::optional<std::span<const int>> candidates) {
  return search_build(bits::active_kernel_backend())
      .cliques_all(ctx, c, triangle_growth, candidates);
}

count_t search_cliques_vertex_all(SearchContext& ctx, int c) {
  return search_build(bits::active_kernel_backend()).vertex_all(ctx, c);
}

}  // namespace c3
