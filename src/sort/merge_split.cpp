#include "sort/merge_split.hpp"

#include <algorithm>
#include <atomic>

#include "sort/merge_split_kernels.hpp"
#include "util/contracts.hpp"

namespace ftsort::sort {

bool simd_kernels_available() {
#if FTSORT_SIMD_KERNELS && defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

namespace {

// -1 = "not chosen yet": the first query resolves the default (Simd when
// this build and CPU have it) without touching __builtin_cpu_supports
// during static initialisation.
constexpr int kBackendUnset = -1;
std::atomic<int> g_backend{kBackendUnset};

KernelBackend default_backend() {
  return simd_kernels_available() ? KernelBackend::Simd
                                  : KernelBackend::Scalar;
}

}  // namespace

KernelBackend set_kernel_backend(KernelBackend requested) {
  const KernelBackend effective =
      (requested == KernelBackend::Simd && simd_kernels_available())
          ? KernelBackend::Simd
          : KernelBackend::Scalar;
  g_backend.store(static_cast<int>(effective), std::memory_order_relaxed);
  return effective;
}

KernelBackend active_kernel_backend() {
  int b = g_backend.load(std::memory_order_relaxed);
  if (b == kBackendUnset) {
    // Store the default once so later calls are a single load. A racing
    // set_kernel_backend wins: on failure `b` already holds its value.
    const int resolved = static_cast<int>(default_backend());
    if (g_backend.compare_exchange_strong(b, resolved,
                                          std::memory_order_relaxed))
      b = resolved;
  }
  return static_cast<KernelBackend>(b);
}

ExchangeProtocol resolve_protocol(ExchangeProtocol configured,
                                  CoalescePolicy policy,
                                  const sim::CostModel& cost) {
  if (configured == ExchangeProtocol::FullExchange) return configured;
  switch (policy) {
    case CoalescePolicy::Off:
      return configured;
    case CoalescePolicy::On:
      return ExchangeProtocol::FullExchange;
    case CoalescePolicy::Auto:
      return cost.routing == sim::RoutingMode::CutThrough
                 ? ExchangeProtocol::FullExchange
                 : configured;
  }
  FTSORT_INVARIANT(false);
  return configured;
}

namespace detail {

void merge_split_into_scalar(std::span<const Key> mine,
                             std::span<const Key> theirs, SplitHalf keep,
                             std::vector<Key>& out,
                             std::uint64_t& comparisons) {
  const std::size_t want = mine.size();
  out.resize(want);
  if (want == 0) return;
  Key* const dst = out.data();

  if (keep == SplitHalf::Lower) {
    // Forward merge until `want` keys are produced.
    std::size_t i = 0;
    std::size_t j = 0;
    for (std::size_t k = 0; k < want; ++k) {
      if (i < mine.size() && j < theirs.size()) {
        ++comparisons;
        dst[k] = theirs[j] < mine[i] ? theirs[j++] : mine[i++];
      } else if (i < mine.size()) {
        dst[k] = mine[i++];
      } else {
        FTSORT_INVARIANT(j < theirs.size());
        dst[k] = theirs[j++];
      }
    }
  } else {
    // Backward merge from the top, filling `out` back-to-front (no final
    // reverse). Comparison sequence matches the forward-filling reference.
    std::size_t i = mine.size();
    std::size_t j = theirs.size();
    for (std::size_t k = want; k-- > 0;) {
      if (i > 0 && j > 0) {
        ++comparisons;
        dst[k] = mine[i - 1] < theirs[j - 1] ? theirs[--j] : mine[--i];
      } else if (i > 0) {
        dst[k] = mine[--i];
      } else {
        FTSORT_INVARIANT(j > 0);
        dst[k] = theirs[--j];
      }
    }
  }
}

void pairwise_select_into_scalar(std::span<const Key> a,
                                 std::span<const Key> b, SplitHalf keep,
                                 std::vector<Key>& kept,
                                 std::vector<Key>& returned,
                                 std::uint64_t& comparisons) {
  FTSORT_REQUIRE(a.size() == b.size());
  const std::size_t n = a.size();
  kept.resize(n);
  returned.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    ++comparisons;
    const Key lo = std::min(a[t], b[t]);
    const Key hi = std::max(a[t], b[t]);
    if (keep == SplitHalf::Lower) {
      kept[t] = lo;
      returned[t] = hi;
    } else {
      kept[t] = hi;
      returned[t] = lo;
    }
  }
}

void pairwise_select_rev_into_scalar(std::span<const Key> a,
                                     std::span<const Key> b, SplitHalf keep,
                                     std::vector<Key>& kept,
                                     std::vector<Key>& returned,
                                     std::uint64_t& comparisons) {
  FTSORT_REQUIRE(a.size() == b.size());
  const std::size_t n = a.size();
  kept.resize(n);
  returned.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    ++comparisons;
    const Key bt = b[n - 1 - t];
    const Key lo = std::min(a[t], bt);
    const Key hi = std::max(a[t], bt);
    if (keep == SplitHalf::Lower) {
      kept[t] = lo;
      returned[t] = hi;
    } else {
      kept[t] = hi;
      returned[t] = lo;
    }
  }
}

void resort_halves_into_scalar(std::vector<Key>& kept,
                               std::span<const Key> back,
                               std::vector<Key>& out,
                               std::vector<Key>& scratch,
                               std::uint64_t& comparisons) {
  sort_unimodal(kept, scratch, comparisons);
  sort_unimodal_into(back, scratch, comparisons);
  merge_sorted_into(kept, scratch, out, comparisons);
}

}  // namespace detail

void merge_split_into(std::span<const Key> mine, std::span<const Key> theirs,
                      SplitHalf keep, std::vector<Key>& out,
                      std::uint64_t& comparisons) {
#if FTSORT_SIMD_KERNELS
  if (active_kernel_backend() == KernelBackend::Simd) {
    detail::merge_split_into_simd(mine, theirs, keep, out, comparisons);
    return;
  }
#endif
  detail::merge_split_into_scalar(mine, theirs, keep, out, comparisons);
}

std::uint64_t merge_split_comparisons(std::span<const Key> mine,
                                      std::span<const Key> theirs,
                                      SplitHalf keep) {
  if (mine.empty() || theirs.empty()) return 0;
  const auto rank = [](auto it, std::span<const Key> s) {
    return static_cast<std::size_t>(it - s.begin());
  };
  std::size_t ta = 0;  // output rank at which `mine` exhausts
  std::size_t tb = 0;  // ... and `theirs`
  if (keep == SplitHalf::Lower) {
    // Forward loop, ties consume mine first: theirs exhausts after
    // (#mine ≤ theirs.back()) + |theirs| outputs, mine after |mine| +
    // (#theirs < mine.back()).
    tb = rank(std::upper_bound(mine.begin(), mine.end(), theirs.back()),
              mine) +
         theirs.size();
    ta = mine.size() + rank(std::lower_bound(theirs.begin(), theirs.end(),
                                             mine.back()),
                            theirs);
  } else {
    // The mirror: the backward loop consumes from the top, mine on ties.
    tb = (mine.size() - rank(std::lower_bound(mine.begin(), mine.end(),
                                              theirs.front()),
                             mine)) +
         theirs.size();
    ta = mine.size() +
         (theirs.size() - rank(std::upper_bound(theirs.begin(), theirs.end(),
                                                mine.front()),
                               theirs));
  }
  return std::min({mine.size(), ta, tb});
}

namespace {

/// Merge path (co-rank): how many of the `m` smallest keys of ascending
/// `a` ∪ `b` come from `a`, taking `b`'s key first on ties.
std::size_t merge_path(std::span<const Key> a, std::span<const Key> b,
                       std::size_t m) {
  std::size_t lo = m > b.size() ? m - b.size() : 0;
  std::size_t hi = std::min(m, a.size());
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (a[mid] < b[m - mid - 1])
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

}  // namespace

SplitRuns merge_split_leftovers(std::span<const Key> mine,
                                std::span<const Key> theirs, SplitHalf keep) {
  if (keep == SplitHalf::Lower) {
    const std::size_t i = merge_path(mine, theirs, mine.size());
    return {mine.subspan(i), theirs.subspan(mine.size() - i)};
  }
  const std::size_t i = merge_path(mine, theirs, theirs.size());
  return {mine.first(i), theirs.first(theirs.size() - i)};
}

std::vector<Key> merge_split_full(std::span<const Key> mine,
                                  std::span<const Key> theirs,
                                  SplitHalf keep,
                                  std::uint64_t& comparisons) {
  std::vector<Key> out;
  merge_split_into(mine, theirs, keep, out, comparisons);
  return out;
}

void pairwise_select_into(std::span<const Key> a, std::span<const Key> b,
                          SplitHalf keep, std::vector<Key>& kept,
                          std::vector<Key>& returned,
                          std::uint64_t& comparisons) {
#if FTSORT_SIMD_KERNELS
  if (active_kernel_backend() == KernelBackend::Simd) {
    detail::pairwise_select_into_simd(a, b, keep, kept, returned, comparisons);
    return;
  }
#endif
  detail::pairwise_select_into_scalar(a, b, keep, kept, returned, comparisons);
}

void pairwise_select_rev_into(std::span<const Key> a, std::span<const Key> b,
                              SplitHalf keep, std::vector<Key>& kept,
                              std::vector<Key>& returned,
                              std::uint64_t& comparisons) {
#if FTSORT_SIMD_KERNELS
  if (active_kernel_backend() == KernelBackend::Simd) {
    detail::pairwise_select_rev_into_simd(a, b, keep, kept, returned,
                                          comparisons);
    return;
  }
#endif
  detail::pairwise_select_rev_into_scalar(a, b, keep, kept, returned,
                                          comparisons);
}

void resort_halves_into(std::vector<Key>& kept, std::span<const Key> back,
                        SplitHalf keep, std::vector<Key>& out,
                        std::vector<Key>& scratch,
                        std::uint64_t& comparisons) {
#if FTSORT_SIMD_KERNELS
  if (active_kernel_backend() == KernelBackend::Simd) {
    detail::resort_halves_into_simd(kept, back, keep, out, comparisons);
    return;
  }
#endif
  (void)keep;  // sort_unimodal finds each half's shape itself
  detail::resort_halves_into_scalar(kept, back, out, scratch, comparisons);
}

PairwiseSplit pairwise_select(std::span<const Key> a, std::span<const Key> b,
                              SplitHalf keep, std::uint64_t& comparisons) {
  PairwiseSplit split;
  pairwise_select_into(a, b, keep, split.kept, split.returned, comparisons);
  return split;
}

}  // namespace ftsort::sort
