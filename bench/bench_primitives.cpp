// google-benchmark microbenchmarks for the substrates: parallel primitives,
// graph construction, orders, triangle/community preprocessing.
#include <benchmark/benchmark.h>

#include <numeric>

#include "c3list.hpp"
#include "parallel/pack.hpp"
#include "parallel/scan.hpp"
#include "parallel/sort.hpp"
#include "util/bitkernels.hpp"
#include "util/rng.hpp"

namespace {

using namespace c3;

void BM_ExclusiveScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> in(n, 3), out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exclusive_scan<std::uint64_t>(in, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ExclusiveScan)->Arg(1 << 14)->Arg(1 << 20);

void BM_ParallelSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> base(n);
  Xoshiro256 rng(1);
  for (auto& x : base) x = rng();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::uint64_t> data = base;
    state.ResumeTiming();
    parallel_sort(data.begin(), data.end());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ParallelSort)->Arg(1 << 14)->Arg(1 << 19);

void BM_PackIndex(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pack_index(n, [](std::size_t i) { return i % 3 == 0; }));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_PackIndex)->Arg(1 << 20);

void BM_BuildGraph(benchmark::State& state) {
  const node_t n = 50'000;
  EdgeList edges;
  Xoshiro256 rng(7);
  for (int i = 0; i < 400'000; ++i) {
    edges.push_back(Edge{static_cast<node_t>(rng.next_below(n)),
                         static_cast<node_t>(rng.next_below(n))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_graph(edges, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(edges.size()) * state.iterations());
}
BENCHMARK(BM_BuildGraph);

void BM_DegeneracyOrder(benchmark::State& state) {
  const Graph g = chung_lu(100'000, 800'000, 0.6, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(degeneracy_order(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(g.num_edges()) * state.iterations());
}
BENCHMARK(BM_DegeneracyOrder);

void BM_ApproxDegeneracyOrder(benchmark::State& state) {
  const Graph g = chung_lu(100'000, 800'000, 0.6, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(approx_degeneracy_order(g, 0.5));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(g.num_edges()) * state.iterations());
}
BENCHMARK(BM_ApproxDegeneracyOrder);

void BM_TriangleCount(benchmark::State& state) {
  const Graph g = social_like(50'000, 400'000, 0.4, 9);
  const Digraph dag = Digraph::orient(g, degeneracy_order(g).order);
  for (auto _ : state) {
    benchmark::DoNotOptimize(count_triangles(dag));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(g.num_edges()) * state.iterations());
}
BENCHMARK(BM_TriangleCount);

void BM_BuildCommunities(benchmark::State& state) {
  const Graph g = social_like(50'000, 400'000, 0.4, 9);
  const Digraph dag = Digraph::orient(g, degeneracy_order(g).order);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdgeCommunities::build(dag));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(g.num_edges()) * state.iterations());
}
BENCHMARK(BM_BuildCommunities);

void BM_CommunityDegeneracyOrder(benchmark::State& state) {
  const Graph g = social_like(20'000, 150'000, 0.4, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(community_degeneracy_order(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(g.num_edges()) * state.iterations());
}
BENCHMARK(BM_CommunityDegeneracyOrder);

/// Shared word buffers for the bit-kernel microbenches.
struct KernelBuffers {
  bits::KernelWords a, b, mask, dst;

  explicit KernelBuffers(std::size_t nwords) : a(nwords), b(nwords), mask(nwords), dst(nwords) {
    Xoshiro256 rng(42);
    for (std::size_t w = 0; w < nwords; ++w) {
      a[w] = rng();
      b[w] = rng();
      mask[w] = rng() | rng();
    }
  }
};

/// The bitwords.hpp reference ops over rows of 16 and 128 words.
void BM_KernelPopcountAnd(benchmark::State& state) {
  const auto nwords = static_cast<std::size_t>(state.range(0));
  const KernelBuffers buf(nwords);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bits::popcount_and(buf.a.data(), buf.b.data(), nwords));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(2 * nwords * sizeof(std::uint64_t)) *
                          state.iterations());
}
BENCHMARK(BM_KernelPopcountAnd)->Arg(16)->Arg(128);

void BM_KernelIntersectInterval(benchmark::State& state) {
  const auto nwords = static_cast<std::size_t>(state.range(0));
  KernelBuffers buf(nwords);
  const std::size_t lo = 3, hi = nwords * bits::kWordBits - 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bits::intersect_interval(buf.a.data(), buf.b.data(), buf.mask.data(),
                                                      buf.dst.data(), nwords, lo, hi));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(4 * nwords * sizeof(std::uint64_t)) *
                          state.iterations());
}
BENCHMARK(BM_KernelIntersectInterval)->Arg(16)->Arg(128);

void BM_KernelIntersectAbove(benchmark::State& state) {
  const auto nwords = static_cast<std::size_t>(state.range(0));
  KernelBuffers buf(nwords);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bits::intersect_above(buf.a.data(), buf.mask.data(), buf.dst.data(), nwords, 5));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(3 * nwords * sizeof(std::uint64_t)) *
                          state.iterations());
}
BENCHMARK(BM_KernelIntersectAbove)->Arg(16)->Arg(128);

void BM_ApproxCommunityDegeneracyOrder(benchmark::State& state) {
  const Graph g = social_like(20'000, 150'000, 0.4, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(approx_community_degeneracy_order(g, 0.5));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(g.num_edges()) * state.iterations());
}
BENCHMARK(BM_ApproxCommunityDegeneracyOrder);

}  // namespace
