// Unit tests for the merge-split kernels, including the identity the
// half-exchange protocol relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "sim/cost_model.hpp"
#include "sort/distribution.hpp"
#include "sort/merge_split.hpp"
#include "util/rng.hpp"

namespace ftsort::sort {
namespace {

TEST(MergeSplitFull, BasicLowerUpper) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> a{1, 4, 7};
  const std::vector<Key> b{2, 3, 9};
  EXPECT_EQ(merge_split_full(a, b, SplitHalf::Lower, comparisons),
            (std::vector<Key>{1, 2, 3}));
  EXPECT_EQ(merge_split_full(a, b, SplitHalf::Upper, comparisons),
            (std::vector<Key>{4, 7, 9}));
}

TEST(MergeSplitFull, ComplementaryHalvesPartitionUnion) {
  util::Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    auto a = gen_uniform(17, rng);
    auto b = gen_uniform(17, rng);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::uint64_t comparisons = 0;
    const auto lower = merge_split_full(a, b, SplitHalf::Lower, comparisons);
    const auto upper = merge_split_full(b, a, SplitHalf::Upper, comparisons);
    std::vector<Key> expected;
    expected.insert(expected.end(), a.begin(), a.end());
    expected.insert(expected.end(), b.begin(), b.end());
    std::sort(expected.begin(), expected.end());
    std::vector<Key> got = lower;
    got.insert(got.end(), upper.begin(), upper.end());
    EXPECT_EQ(got, expected);  // lower then upper == sorted union
  }
}

TEST(MergeSplitFull, ResultsAreAscending) {
  util::Rng rng(2);
  auto a = gen_few_distinct(25, 4, rng);
  auto b = gen_few_distinct(25, 4, rng);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::uint64_t comparisons = 0;
  EXPECT_TRUE(is_ascending(
      merge_split_full(a, b, SplitHalf::Lower, comparisons)));
  EXPECT_TRUE(is_ascending(
      merge_split_full(a, b, SplitHalf::Upper, comparisons)));
}

TEST(MergeSplitFull, UnequalSizesKeepOwnSize) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> mine{5, 6};
  const std::vector<Key> theirs{1, 2, 3, 4};
  EXPECT_EQ(merge_split_full(mine, theirs, SplitHalf::Lower, comparisons),
            (std::vector<Key>{1, 2}));
  EXPECT_EQ(merge_split_full(mine, theirs, SplitHalf::Upper, comparisons),
            (std::vector<Key>{5, 6}));
}

TEST(MergeSplitFull, EmptyInputs) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> empty;
  const std::vector<Key> some{1, 2};
  EXPECT_TRUE(
      merge_split_full(empty, some, SplitHalf::Lower, comparisons).empty());
  EXPECT_EQ(merge_split_full(some, empty, SplitHalf::Lower, comparisons),
            some);
  EXPECT_EQ(comparisons, 0u);
}

TEST(MergeSplitFull, LinearComparisonBudget) {
  util::Rng rng(3);
  auto a = gen_uniform(100, rng);
  auto b = gen_uniform(100, rng);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::uint64_t comparisons = 0;
  merge_split_full(a, b, SplitHalf::Lower, comparisons);
  EXPECT_LE(comparisons, 100u);  // stops after producing |mine| keys
}

TEST(PairwiseIdentity, ReversedPairingYieldsExactSplit) {
  // The identity behind the paper's half-exchange: for equal-length
  // ascending blocks A, B, { min(A[k], B[b-1-k]) } is exactly the multiset
  // of the b smallest keys of A ∪ B.
  util::Rng rng(4);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t b = 1 + rng.below(40);
    auto A = gen_uniform(b, rng);
    auto B = gen_uniform(b, rng);
    std::sort(A.begin(), A.end());
    std::sort(B.begin(), B.end());
    std::vector<Key> mins;
    std::vector<Key> maxs;
    for (std::size_t k = 0; k < b; ++k) {
      mins.push_back(std::min(A[k], B[b - 1 - k]));
      maxs.push_back(std::max(A[k], B[b - 1 - k]));
    }
    std::vector<Key> all;
    all.insert(all.end(), A.begin(), A.end());
    all.insert(all.end(), B.begin(), B.end());
    std::sort(all.begin(), all.end());
    std::sort(mins.begin(), mins.end());
    std::sort(maxs.begin(), maxs.end());
    EXPECT_TRUE(std::equal(mins.begin(), mins.end(), all.begin()));
    EXPECT_TRUE(std::equal(maxs.begin(), maxs.end(),
                           all.begin() + static_cast<std::ptrdiff_t>(b)));
  }
}

TEST(PairwiseSelect, SplitsWinnersFromLosers) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> a{3, 8, 1};
  const std::vector<Key> b{5, 2, 9};
  const auto lower = pairwise_select(a, b, SplitHalf::Lower, comparisons);
  EXPECT_EQ(lower.kept, (std::vector<Key>{3, 2, 1}));
  EXPECT_EQ(lower.returned, (std::vector<Key>{5, 8, 9}));
  const auto upper = pairwise_select(a, b, SplitHalf::Upper, comparisons);
  EXPECT_EQ(upper.kept, (std::vector<Key>{5, 8, 9}));
  EXPECT_EQ(upper.returned, (std::vector<Key>{3, 2, 1}));
  EXPECT_EQ(comparisons, 6u);
}

TEST(PairwiseSelect, RejectsMismatchedLengths) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> a{1};
  const std::vector<Key> b{1, 2};
  EXPECT_THROW(pairwise_select(a, b, SplitHalf::Lower, comparisons),
               ContractViolation);
}

TEST(PairwiseSelect, EmptyIsEmpty) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> empty;
  const auto split =
      pairwise_select(empty, empty, SplitHalf::Lower, comparisons);
  EXPECT_TRUE(split.kept.empty());
  EXPECT_TRUE(split.returned.empty());
}

TEST(PairwiseSelect, DummiesLoseEveryComparison) {
  std::uint64_t comparisons = 0;
  const std::vector<Key> a{1, sim::kDummyKey};
  const std::vector<Key> b{sim::kDummyKey, 2};
  const auto split = pairwise_select(a, b, SplitHalf::Lower, comparisons);
  EXPECT_EQ(split.kept, (std::vector<Key>{1, 2}));
  EXPECT_EQ(split.returned,
            (std::vector<Key>{sim::kDummyKey, sim::kDummyKey}));
}

// The scratch-buffer kernels must be drop-in replacements for the
// allocating reference kernels: byte-identical output AND an identical
// comparison count (the simulator's RunReport checksums depend on both).
TEST(MergeSplitInto, MatchesReferenceBitForBit) {
  util::Rng rng(11);
  std::vector<Key> out;  // reused across every trial: exercises capacity reuse
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t na = 1 + static_cast<std::size_t>(trial) % 33;
    const std::size_t nb = 1 + static_cast<std::size_t>(trial * 7) % 33;
    auto a = gen_uniform(na, rng);
    auto b = gen_uniform(nb, rng);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    for (const SplitHalf keep : {SplitHalf::Lower, SplitHalf::Upper}) {
      std::uint64_t c_ref = 0;
      std::uint64_t c_into = 0;
      const auto ref = merge_split_full(a, b, keep, c_ref);
      merge_split_into(a, b, keep, out, c_into);
      ASSERT_EQ(out, ref);
      ASSERT_EQ(c_into, c_ref);
    }
  }
}

TEST(MergeSplitInto, SteadyStateDoesNotReallocate) {
  util::Rng rng(12);
  auto a = gen_uniform(64, rng);
  auto b = gen_uniform(64, rng);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::uint64_t c = 0;
  std::vector<Key> out;
  merge_split_into(a, b, SplitHalf::Lower, out, c);
  const Key* warm = out.data();
  const std::size_t cap = out.capacity();
  for (int i = 0; i < 16; ++i)
    merge_split_into(a, b, i % 2 ? SplitHalf::Lower : SplitHalf::Upper, out,
                     c);
  EXPECT_EQ(out.data(), warm);       // same storage after warm-up
  EXPECT_EQ(out.capacity(), cap);
}

TEST(PairwiseSelectInto, MatchesReferenceBitForBit) {
  util::Rng rng(13);
  std::vector<Key> kept;
  std::vector<Key> returned;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(trial) % 40;
    auto a = gen_uniform(n, rng);
    auto b = gen_uniform(n, rng);
    for (const SplitHalf keep : {SplitHalf::Lower, SplitHalf::Upper}) {
      std::uint64_t c_ref = 0;
      std::uint64_t c_into = 0;
      const auto ref = pairwise_select(a, b, keep, c_ref);
      pairwise_select_into(a, b, keep, kept, returned, c_into);
      ASSERT_EQ(kept, ref.kept);
      ASSERT_EQ(returned, ref.returned);
      ASSERT_EQ(c_into, c_ref);
    }
  }
}

TEST(PairwiseSelectRevInto, EquivalentToReversedCopy) {
  util::Rng rng(14);
  std::vector<Key> kept;
  std::vector<Key> returned;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(trial) % 40;
    auto a = gen_uniform(n, rng);
    auto b = gen_uniform(n, rng);
    std::vector<Key> b_rev(b.rbegin(), b.rend());
    for (const SplitHalf keep : {SplitHalf::Lower, SplitHalf::Upper}) {
      std::uint64_t c_ref = 0;
      std::uint64_t c_into = 0;
      const auto ref = pairwise_select(a, b_rev, keep, c_ref);
      pairwise_select_rev_into(a, b, keep, kept, returned, c_into);
      ASSERT_EQ(kept, ref.kept);
      ASSERT_EQ(returned, ref.returned);
      ASSERT_EQ(c_into, c_ref);
    }
  }
}

// ---------------------------------------------------------------------------
// Exchange coalescing: the protocol rewrite is a pure function of the
// configured protocol, the policy, and the cost model's routing mode.

TEST(ResolveProtocol, AutoEngagesOnlyUnderCutThrough) {
  const sim::CostModel saf = sim::CostModel::ncube7();
  const sim::CostModel ct = sim::CostModel::wormhole();
  using EP = ExchangeProtocol;
  using CP = CoalescePolicy;
  // Full exchange is already the coalesced form — nothing to rewrite.
  EXPECT_EQ(resolve_protocol(EP::FullExchange, CP::Off, saf),
            EP::FullExchange);
  EXPECT_EQ(resolve_protocol(EP::FullExchange, CP::Auto, ct),
            EP::FullExchange);
  // Off never rewrites, On always does, Auto keys off the routing mode.
  EXPECT_EQ(resolve_protocol(EP::HalfExchange, CP::Off, ct),
            EP::HalfExchange);
  EXPECT_EQ(resolve_protocol(EP::HalfExchange, CP::On, saf),
            EP::FullExchange);
  EXPECT_EQ(resolve_protocol(EP::HalfExchange, CP::Auto, saf),
            EP::HalfExchange);
  EXPECT_EQ(resolve_protocol(EP::HalfExchange, CP::Auto, ct),
            EP::FullExchange);
}

// ---------------------------------------------------------------------------
// Scalar-vs-SIMD kernel equivalence. The vectorized kernels must be
// indistinguishable from the scalar oracle: byte-identical output AND an
// identical comparison count, over random, duplicate-heavy, presorted,
// disjoint-range, and odd-sized inputs. On hosts without AVX2 the Simd
// request degrades to Scalar and these sweeps compare scalar to itself —
// still a valid (if vacuous) run, so no skip.

/// Restores the process-global kernel backend on scope exit so a failing
/// ASSERT cannot leak a non-default backend into unrelated tests.
class KernelBackendGuard {
 public:
  KernelBackendGuard() : prev_(active_kernel_backend()) {}
  ~KernelBackendGuard() { set_kernel_backend(prev_); }

 private:
  KernelBackend prev_;
};

/// One ascending input drawn from an adversarial family.
std::vector<Key> sorted_family(int family, std::size_t n, util::Rng& rng) {
  std::vector<Key> v;
  switch (family) {
    case 0:  // uniform random
      v = gen_uniform(n, rng);
      break;
    case 1:  // duplicate-heavy: long tie runs stress tie-insensitivity
      v = gen_few_distinct(n, 3, rng);
      break;
    case 2:  // all equal
      v.assign(n, 42);
      break;
    case 3:  // presorted dense ramp
      for (std::size_t i = 0; i < n; ++i)
        v.push_back(static_cast<Key>(i + rng.below(2)));
      break;
    case 4:  // disjoint low range: exhausts the other input immediately
      for (std::size_t i = 0; i < n; ++i)
        v.push_back(static_cast<Key>(rng.below(1000)));
      break;
    case 5:  // disjoint high range
      for (std::size_t i = 0; i < n; ++i)
        v.push_back(static_cast<Key>(1'000'000'000 + rng.below(1000)));
      break;
    default:  // dummy-key tail, as left behind by padded exchanges
      v = gen_uniform(n, rng);
      std::sort(v.begin(), v.end());
      for (std::size_t i = n - std::min(n, n / 3); i < n; ++i)
        v[i] = sim::kDummyKey;
      break;
  }
  std::sort(v.begin(), v.end());
  return v;
}

/// Block sizes of the merge-split sweeps: the SIMD kernel's short tails,
/// both sides of its two-lane threshold (64 keys out), and a 2,048-key
/// block.
constexpr std::size_t kSweepSizes[] = {0,  1,  2,  3,  4,  5,   7,   8,
                                       9,  12, 15, 16, 17, 31,  33,  63,
                                       64, 65, 100, 300, 2048};

TEST(KernelBackends, MergeSplitScalarAndSimdMatchBitForBit) {
  KernelBackendGuard guard;
  util::Rng rng(77);
  std::vector<Key> ref;
  std::vector<Key> out;
  for (const std::size_t na : kSweepSizes) {
    for (const std::size_t nb : kSweepSizes) {
      for (int fa = 0; fa < 7; ++fa) {
        for (int fb = 0; fb < 7; ++fb) {
          const auto a = sorted_family(fa, na, rng);
          const auto b = sorted_family(fb, nb, rng);
          for (const SplitHalf keep : {SplitHalf::Lower, SplitHalf::Upper}) {
            std::uint64_t c_ref = 0;
            std::uint64_t c_out = 0;
            set_kernel_backend(KernelBackend::Scalar);
            merge_split_into(a, b, keep, ref, c_ref);
            set_kernel_backend(KernelBackend::Simd);
            merge_split_into(a, b, keep, out, c_out);
            ASSERT_EQ(out, ref) << "na=" << na << " nb=" << nb
                                << " fa=" << fa << " fb=" << fb;
            ASSERT_EQ(c_out, c_ref) << "na=" << na << " nb=" << nb
                                    << " fa=" << fa << " fb=" << fb;
          }
        }
      }
    }
  }
}

/// How many of the `m` smallest keys of `a` ∪ `b` a scalar merge that
/// takes `b`'s key first on ties draws from `a`.
std::size_t replayed_merge_path(const std::vector<Key>& a,
                                const std::vector<Key>& b, std::size_t m) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i + j < m) {
    if (j < b.size() && (i == a.size() || b[j] <= a[i]))
      ++j;
    else
      ++i;
  }
  return i;
}

// The leftovers of my merge-split are the partner's half: merged, they
// equal the partner's own merge_split_into byte for byte, and the closed
// comparison count equals the Scalar loop's, for either side.
TEST(MergeSplitLeftovers, MergedLeftoversAreThePartnersHalf) {
  KernelBackendGuard guard;
  set_kernel_backend(KernelBackend::Scalar);
  util::Rng rng(81);
  std::vector<Key> kept;
  std::vector<Key> partner;
  std::vector<Key> merged;
  for (const std::size_t na : kSweepSizes) {
    for (const std::size_t nb : kSweepSizes) {
      for (int fa = 0; fa < 7; ++fa) {
        for (int fb = 0; fb < 7; ++fb) {
          const auto a = sorted_family(fa, na, rng);
          const auto b = sorted_family(fb, nb, rng);
          for (const SplitHalf keep : {SplitHalf::Lower, SplitHalf::Upper}) {
            const SplitHalf other = keep == SplitHalf::Lower
                                        ? SplitHalf::Upper
                                        : SplitHalf::Lower;
            const auto where = [&] {
              return "na=" + std::to_string(na) + " nb=" +
                     std::to_string(nb) + " fa=" + std::to_string(fa) +
                     " fb=" + std::to_string(fb) +
                     (keep == SplitHalf::Lower ? " Lower" : " Upper");
            };
            std::uint64_t c_kept = 0;
            std::uint64_t c_partner = 0;
            merge_split_into(a, b, keep, kept, c_kept);
            merge_split_into(b, a, other, partner, c_partner);

            const SplitRuns left = merge_split_leftovers(a, b, keep);
            merged.resize(left.mine.size() + left.theirs.size());
            std::merge(left.mine.begin(), left.mine.end(),
                       left.theirs.begin(), left.theirs.end(),
                       merged.begin());
            ASSERT_EQ(merged, partner) << where();
            // The runs are cut at the merge path, ties to `b` first.
            const std::size_t i =
                replayed_merge_path(a, b, keep == SplitHalf::Lower ? na : nb);
            ASSERT_EQ(left.mine.size(), keep == SplitHalf::Lower ? na - i : i)
                << where();

            ASSERT_EQ(merge_split_comparisons(a, b, keep), c_kept) << where();
            ASSERT_EQ(merge_split_comparisons(b, a, other), c_partner)
                << where();
          }
        }
      }
    }
  }
}

TEST(KernelBackends, PairwiseScalarAndSimdMatchBitForBit) {
  KernelBackendGuard guard;
  util::Rng rng(78);
  std::vector<Key> kept_ref;
  std::vector<Key> ret_ref;
  std::vector<Key> kept;
  std::vector<Key> ret;
  for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 8u, 13u, 16u, 31u, 64u}) {
    for (int trial = 0; trial < 8; ++trial) {
      auto a = gen_uniform(n, rng);
      auto b = gen_uniform(n, rng);
      // Sprinkle dummy keys — they must lose every comparison in both
      // backends (they are plain max-valued keys, nothing special-cased).
      for (auto& k : a)
        if (rng.below(5) == 0) k = sim::kDummyKey;
      for (auto& k : b)
        if (rng.below(5) == 0) k = sim::kDummyKey;
      for (const SplitHalf keep : {SplitHalf::Lower, SplitHalf::Upper}) {
        std::uint64_t c_ref = 0;
        std::uint64_t c_out = 0;
        set_kernel_backend(KernelBackend::Scalar);
        pairwise_select_into(a, b, keep, kept_ref, ret_ref, c_ref);
        set_kernel_backend(KernelBackend::Simd);
        pairwise_select_into(a, b, keep, kept, ret, c_out);
        ASSERT_EQ(kept, kept_ref) << "n=" << n;
        ASSERT_EQ(ret, ret_ref) << "n=" << n;
        ASSERT_EQ(c_out, c_ref) << "n=" << n;
        c_ref = c_out = 0;
        set_kernel_backend(KernelBackend::Scalar);
        pairwise_select_rev_into(a, b, keep, kept_ref, ret_ref, c_ref);
        set_kernel_backend(KernelBackend::Simd);
        pairwise_select_rev_into(a, b, keep, kept, ret, c_out);
        ASSERT_EQ(kept, kept_ref) << "rev n=" << n;
        ASSERT_EQ(ret, ret_ref) << "rev n=" << n;
        ASSERT_EQ(c_out, c_ref) << "rev n=" << n;
      }
    }
  }
}

/// The halves a half exchange hands resort_halves_into, cut from real
/// pairwise-select output of ascending blocks `a` and `b`: the Lower side
/// gets the pairwise mins with `back` first, the Upper side the maxes with
/// `kept` first. `kept` holds `nk` keys, `back` the rest.
void cut_halves(const std::vector<Key>& a, const std::vector<Key>& b,
                std::size_t nk, SplitHalf keep, std::vector<Key>& kept,
                std::vector<Key>& back) {
  std::uint64_t ignored = 0;
  std::vector<Key> mins;
  std::vector<Key> maxes;
  pairwise_select_rev_into(a, b, SplitHalf::Lower, mins, maxes, ignored);
  const std::vector<Key>& s = keep == SplitHalf::Lower ? mins : maxes;
  const auto cut = static_cast<std::ptrdiff_t>(
      keep == SplitHalf::Lower ? s.size() - nk : nk);
  const std::vector<Key> head(s.begin(), s.begin() + cut);
  const std::vector<Key> tail(s.begin() + cut, s.end());
  kept = keep == SplitHalf::Lower ? tail : head;
  back = keep == SplitHalf::Lower ? head : tail;
}

/// Runs both backends on copies of the same halves; returns an empty
/// string when they agree on the bytes and the comparison count, and the
/// Simd backend left its inputs and the scratch alone.
std::string resort_mismatch(const std::vector<Key>& kept,
                            const std::vector<Key>& back, SplitHalf keep) {
  std::vector<Key> scratch;
  std::vector<Key> ref;
  std::vector<Key> out;
  std::uint64_t c_ref = 0;
  std::uint64_t c_out = 0;
  std::vector<Key> k = kept;
  std::vector<Key> bk = back;
  set_kernel_backend(KernelBackend::Scalar);
  resort_halves_into(k, bk, keep, ref, scratch, c_ref);
  k = kept;
  bk = back;
  scratch.clear();
  const bool simd =
      set_kernel_backend(KernelBackend::Simd) == KernelBackend::Simd;
  resort_halves_into(k, bk, keep, out, scratch, c_out);
  if (simd && (k != kept || bk != back || !scratch.empty()))
    return "Simd backend wrote to its inputs";
  if (out != ref) return "output differs";
  if (c_out != c_ref)
    return "count " + std::to_string(c_out) + " != " + std::to_string(c_ref);
  return {};
}

// Value families of the two blocks: uniform, 3-distinct, all-equal,
// disjoint ranges both ways, dummy-padded tails, and mixes of them.
constexpr std::pair<int, int> kResortFamilies[] = {
    {0, 0}, {1, 1}, {2, 2}, {4, 5}, {5, 4},
    {6, 6}, {0, 6}, {6, 1}, {1, 2}, {2, 0}};

TEST(KernelBackends, ResortHalvesScalarAndSimdMatchOnEverySmallSplit) {
  KernelBackendGuard guard;
  util::Rng rng(79);
  std::vector<Key> kept;
  std::vector<Key> back;
  for (std::size_t nk = 0; nk <= 70; ++nk) {
    for (std::size_t nb = 0; nb <= 70; ++nb) {
      for (const auto& [fa, fb] : kResortFamilies) {
        const auto a = sorted_family(fa, nk + nb, rng);
        const auto b = sorted_family(fb, nk + nb, rng);
        for (const SplitHalf keep : {SplitHalf::Lower, SplitHalf::Upper}) {
          cut_halves(a, b, nk, keep, kept, back);
          const std::string why = resort_mismatch(kept, back, keep);
          ASSERT_TRUE(why.empty())
              << why << ": nk=" << nk << " nb=" << nb << " fa=" << fa
              << " fb=" << fb
              << (keep == SplitHalf::Lower ? " Lower" : " Upper");
        }
      }
    }
  }
}

TEST(KernelBackends, ResortHalvesScalarAndSimdMatchOnFigure7Blocks) {
  KernelBackendGuard guard;
  util::Rng rng(80);
  std::vector<Key> kept;
  std::vector<Key> back;
  constexpr std::size_t kBlock = 4229;  // Q_6, 62 live nodes, 262,144 keys
  for (int trial = 0; trial < 3; ++trial) {
    for (const auto& [fa, fb] : kResortFamilies) {
      const auto a = sorted_family(fa, kBlock, rng);
      const auto b = sorted_family(fb, kBlock, rng);
      for (const SplitHalf keep : {SplitHalf::Lower, SplitHalf::Upper}) {
        const std::size_t h = kBlock / 2;
        cut_halves(a, b, keep == SplitHalf::Lower ? kBlock - h : h, keep,
                   kept, back);
        const std::string why = resort_mismatch(kept, back, keep);
        ASSERT_TRUE(why.empty()) << why << ": fa=" << fa << " fb=" << fb;
      }
    }
  }
}

// Every test that switches the backend restores it, so this sees what a
// fresh process starts on: Simd exactly where this build and CPU have it.
TEST(KernelBackends, FreshProcessDefaultsToSimdWhereAvailable) {
  EXPECT_EQ(active_kernel_backend(), simd_kernels_available()
                                         ? KernelBackend::Simd
                                         : KernelBackend::Scalar);
}

TEST(KernelBackends, SimdRequestDegradesCleanlyWhenUnavailable) {
  KernelBackendGuard guard;
  const KernelBackend effective = set_kernel_backend(KernelBackend::Simd);
  EXPECT_EQ(effective, simd_kernels_available() ? KernelBackend::Simd
                                                : KernelBackend::Scalar);
  EXPECT_EQ(active_kernel_backend(), effective);
  EXPECT_EQ(set_kernel_backend(KernelBackend::Scalar),
            KernelBackend::Scalar);
  EXPECT_EQ(active_kernel_backend(), KernelBackend::Scalar);
}

}  // namespace
}  // namespace ftsort::sort
