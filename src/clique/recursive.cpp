// The baseline build of Algorithm 2 (recursive_impl.hpp) and the dispatch
// between it and the -mpopcnt build in recursive_popcnt.cpp.
#include "clique/recursive_impl.hpp"

namespace c3 {
namespace {

constexpr detail::SearchBuild kBaselineBuild{cliques_all, vertex_all, "baseline"};

/// The scalar backend runs the baseline build; every vector backend runs the
/// POPCNT build when there is one (AVX2 and AVX-512 hosts always have POPCNT).
const detail::SearchBuild& search_build(bits::KernelBackend backend) noexcept {
  if (backend != bits::KernelBackend::Scalar) {
    if (const detail::SearchBuild* fast = detail::popcnt_search_build()) return *fast;
  }
  return kBaselineBuild;
}

}  // namespace

void SearchContext::ensure_capacity(int gamma, int depth, int words) {
  const auto g = static_cast<std::size_t>(std::max(gamma, 1));
  const auto d = static_cast<std::size_t>(std::max(depth, 1));
  const auto w = static_cast<std::size_t>(std::max(words, 1));
  if (g <= cand_stride_ && w <= mask_stride_ && d <= depth_) return;
  cand_stride_ = std::max(cand_stride_, g);
  mask_stride_ = std::max(mask_stride_, w);
  depth_ = std::max(depth_, d);
  cand_pool_.assign(depth_ * cand_stride_, 0);
  mask_pool_.assign(depth_ * mask_stride_, 0);
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

const char* search_build_name(bits::KernelBackend backend) noexcept {
  return search_build(backend).name;
}

}  // namespace c3
