// Google-benchmark micro: sequential sorting kernels executed inside each
// simulated processor — heapsort (the paper's Step 3 choice) against
// std::sort, the merge-split kernels, and the unimodal repair sort.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sort/bitonic_network.hpp"
#include "sort/merge_split.hpp"
#include "sort/sequential.hpp"
#include "sort/distribution.hpp"
#include "util/rng.hpp"

namespace {

using namespace ftsort;
using sort::Key;

void BM_Heapsort(benchmark::State& state) {
  util::Rng rng(1);
  const auto base =
      sort::gen_uniform(static_cast<std::size_t>(state.range(0)), rng);
  std::uint64_t comparisons = 0;
  for (auto _ : state) {
    auto keys = base;
    comparisons = 0;
    sort::heapsort(keys, comparisons);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["comparisons"] = static_cast<double>(comparisons);
}

void BM_StdSort(benchmark::State& state) {
  util::Rng rng(1);
  const auto base =
      sort::gen_uniform(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto keys = base;
    std::sort(keys.begin(), keys.end());
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_MergeSplitFull(benchmark::State& state) {
  util::Rng rng(2);
  auto a = sort::gen_uniform(static_cast<std::size_t>(state.range(0)), rng);
  auto b = sort::gen_uniform(static_cast<std::size_t>(state.range(0)), rng);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (auto _ : state) {
    std::uint64_t comparisons = 0;
    auto lower =
        sort::merge_split_full(a, b, sort::SplitHalf::Lower, comparisons);
    benchmark::DoNotOptimize(lower.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_PairwiseSelect(benchmark::State& state) {
  util::Rng rng(3);
  const auto a =
      sort::gen_uniform(static_cast<std::size_t>(state.range(0)), rng);
  const auto b =
      sort::gen_uniform(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    std::uint64_t comparisons = 0;
    auto split =
        sort::pairwise_select(a, b, sort::SplitHalf::Lower, comparisons);
    benchmark::DoNotOptimize(split.kept.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// Input pairs the merge micros cycle through, one pair per iteration.
/// Timing one pair every iteration lets the branch predictor learn the
/// Scalar kernel's data-dependent branches on blocks of up to a few
/// thousand keys, which a sort's changing inputs never allow. The set
/// holds 2^16 keys per side (4,096 pairs at 16 keys, two pairs from
/// 32,768 on): far more branches than a predictor holds, while both
/// sides still fit in a 2 MiB L2. `sorted`: each block ascending, as
/// merge_split_into needs.
std::vector<std::pair<std::vector<Key>, std::vector<Key>>> input_pairs(
    std::size_t keys, std::uint64_t seed, bool sorted) {
  const std::size_t count =
      std::max<std::size_t>((std::size_t{1} << 16) / keys, 2);
  util::Rng rng(seed);
  std::vector<std::pair<std::vector<Key>, std::vector<Key>>> pairs(count);
  for (auto& [a, b] : pairs) {
    a = sort::gen_uniform(keys, rng);
    b = sort::gen_uniform(keys, rng);
    if (sorted) {
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
    }
  }
  return pairs;
}

/// Args: keys per block, backend (0 Scalar, 1 Simd), keep (0 Lower,
/// 1 Upper). Uniform blocks overlap, so the Simd kernel merges rather than
/// copies: one lane at 16 keys, two lanes from 64 (DESIGN §6). A Simd row
/// on a host without AVX2 runs Scalar and says so in its label.
void BM_MergeSplitInto(benchmark::State& state) {
  const sort::KernelBackend prev = sort::active_kernel_backend();
  const sort::KernelBackend backend = sort::set_kernel_backend(
      state.range(1) != 0 ? sort::KernelBackend::Simd
                          : sort::KernelBackend::Scalar);
  const sort::SplitHalf keep =
      state.range(2) != 0 ? sort::SplitHalf::Upper : sort::SplitHalf::Lower;
  const auto pairs =
      input_pairs(static_cast<std::size_t>(state.range(0)), 2, true);
  std::size_t next = 0;
  std::vector<Key> out;
  for (auto _ : state) {
    const auto& [a, b] = pairs[next];
    next = next + 1 == pairs.size() ? 0 : next + 1;
    std::uint64_t comparisons = 0;
    sort::merge_split_into(a, b, keep, out, comparisons);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(backend == sort::KernelBackend::Simd ? "simd" : "scalar");
  sort::set_kernel_backend(prev);
}

void BM_PairwiseSelectInto(benchmark::State& state) {
  const auto pairs =
      input_pairs(static_cast<std::size_t>(state.range(0)), 3, false);
  std::size_t next = 0;
  std::vector<Key> kept;
  std::vector<Key> returned;
  for (auto _ : state) {
    const auto& [a, b] = pairs[next];
    next = next + 1 == pairs.size() ? 0 : next + 1;
    std::uint64_t comparisons = 0;
    sort::pairwise_select_into(a, b, sort::SplitHalf::Lower, kept, returned,
                               comparisons);
    benchmark::DoNotOptimize(kept.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_PairwiseSelectRevInto(benchmark::State& state) {
  const auto pairs =
      input_pairs(static_cast<std::size_t>(state.range(0)), 3, false);
  std::size_t next = 0;
  std::vector<Key> kept;
  std::vector<Key> returned;
  for (auto _ : state) {
    const auto& [a, b] = pairs[next];
    next = next + 1 == pairs.size() ? 0 : next + 1;
    std::uint64_t comparisons = 0;
    sort::pairwise_select_rev_into(a, b, sort::SplitHalf::Lower, kept,
                                   returned, comparisons);
    benchmark::DoNotOptimize(kept.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SortUnimodal(benchmark::State& state) {
  const auto base =
      sort::gen_organ_pipe(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto keys = base;
    std::uint64_t comparisons = 0;
    sort::sort_unimodal(keys, comparisons);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_BitonicNetworkSequential(benchmark::State& state) {
  util::Rng rng(4);
  const auto base =
      sort::gen_uniform(std::size_t{1} << state.range(0), rng);
  for (auto _ : state) {
    auto keys = base;
    std::uint64_t comparisons = 0;
    sort::bitonic_sort_sequential(keys, comparisons);
    benchmark::DoNotOptimize(keys.data());
  }
}

}  // namespace

// 4,228 keys is one Fig. 7 block (262,144 keys over 62 live nodes).
BENCHMARK(BM_Heapsort)->Arg(1 << 10)->Arg(4228)->Arg(1 << 14)->Arg(1 << 18);
BENCHMARK(BM_StdSort)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);
BENCHMARK(BM_MergeSplitFull)->Arg(1 << 10)->Arg(1 << 16);
BENCHMARK(BM_MergeSplitInto)
    ->ArgNames({"keys", "simd", "upper"})
    ->ArgsProduct({{16, 64, 256, 1 << 10, 2048, 1 << 16}, {0, 1}, {0, 1}});
BENCHMARK(BM_PairwiseSelect)->Arg(1 << 10)->Arg(1 << 16);
BENCHMARK(BM_PairwiseSelectInto)->Arg(1 << 10)->Arg(1 << 16);
BENCHMARK(BM_PairwiseSelectRevInto)->Arg(1 << 10)->Arg(1 << 16);
BENCHMARK(BM_SortUnimodal)->Arg(1 << 10)->Arg(1 << 16);
BENCHMARK(BM_BitonicNetworkSequential)->Arg(10)->Arg(14);

BENCHMARK_MAIN();
