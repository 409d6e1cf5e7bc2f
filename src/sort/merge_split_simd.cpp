// Vectorized merge-split / pairwise-select kernels (KernelBackend::Simd).
//
// This is the only translation unit compiled with vector ISA flags
// (-mavx2; see src/sort/CMakeLists.txt) — nothing here may run unless
// simd_kernels_available() said yes, which merge_split.cpp's dispatch
// guarantees.
//
// The merge kernel is an Inoue-style block merge: keep two sorted
// 4-vectors in registers, run a bitonic merge network over them (3 levels
// of min/max + lane shuffles), emit the low four, carry the high four, and
// refill from whichever input's next head is smaller. Correctness of the
// refill rule needs both inputs sorted: every carried key from the refill
// side is ≤ its head, and every carried key from the other side is ≤ that
// side's still-unloaded head, so the emitted low four can never overtake an
// unloaded key. The tail (fewer than four keys left anywhere) finishes with
// a three-way scalar merge over {carry, rest of mine, rest of theirs}.
// A merge-split runs that merge forward over exactly the kept keys: a
// merge-path search cuts them out of both inputs (for Upper it skips the
// smallest), and large merges step two lanes split at the middle.
//
// Byte-identity with the scalar oracle needs no tie-breaking care: keys are
// plain values, so "the `want` smallest keys of the union, ascending" is a
// unique byte string no matter which side equal keys came from. Comparison
// counts ARE tie-sensitive, but they are a pure function of the inputs:
// the scalar loop counts one comparison per output until the first input
// run exhausts, and the exhaustion point is a rank — computable with one
// binary search (merge_split_comparisons in merge_split.cpp), not by
// replaying the loop. tests/test_merge_split.cpp pins both properties
// exhaustively.
//
// The half exchange's local finish (resort_halves_into_simd, at the end)
// reuses that merge on the two monotone runs of one bitonic sequence,
// reading the descending run backwards, and derives the scalar count the
// same way.
#include <algorithm>
#include <array>
#include <cstring>

#include "sort/merge_split_kernels.hpp"
#include "util/contracts.hpp"

namespace ftsort::sort::detail {

namespace {

typedef Key v4k __attribute__((vector_size(32)));
typedef double v4d __attribute__((vector_size(32)));

inline v4k vmin4(v4k a, v4k b) { return a < b ? a : b; }
inline v4k vmax4(v4k a, v4k b) { return a > b ? a : b; }
inline v4k reverse4(v4k x) { return __builtin_shufflevector(x, x, 3, 2, 1, 0); }

/// Bit t set iff lane t of the comparison result `hit` is true.
inline int lane_mask(v4k hit) {
  return __builtin_ia32_movmskpd256(reinterpret_cast<v4d>(hit));
}

/// Key j of `p[0, n)` read forwards, or backwards when kRev (a
/// non-increasing array then reads ascending).
template <bool kRev>
inline Key key_at(const Key* p, std::size_t n, std::size_t j) {
  return kRev ? p[n - 1 - j] : p[j];
}

/// Keys j .. j+3 of `p[0, n)` in the reading order of key_at.
template <bool kRev>
inline v4k load4(const Key* p, std::size_t n, std::size_t j) {
  v4k v;
  if constexpr (kRev) {
    std::memcpy(&v, p + (n - j - 4), 32);
    return reverse4(v);
  } else {
    std::memcpy(&v, p + j, 32);
    return v;
  }
}

/// Bitonic merge of two ascending 4-vectors: on return `va` holds the four
/// smallest of the eight keys and `vb` the four largest, both ascending.
inline void bitonic_merge8(v4k& va, v4k& vb) {
  const v4k rb = reverse4(vb);
  v4k l = vmin4(va, rb);
  v4k h = vmax4(va, rb);
  v4k t = __builtin_shufflevector(l, l, 2, 3, 0, 1);
  v4k mn = vmin4(l, t);
  v4k mx = vmax4(l, t);
  l = __builtin_shufflevector(mn, mx, 0, 1, 6, 7);
  t = __builtin_shufflevector(l, l, 1, 0, 3, 2);
  mn = vmin4(l, t);
  mx = vmax4(l, t);
  l = __builtin_shufflevector(mn, mx, 0, 5, 2, 7);
  t = __builtin_shufflevector(h, h, 2, 3, 0, 1);
  mn = vmin4(h, t);
  mx = vmax4(h, t);
  h = __builtin_shufflevector(mn, mx, 0, 1, 6, 7);
  t = __builtin_shufflevector(h, h, 1, 0, 3, 2);
  mn = vmin4(h, t);
  mx = vmax4(h, t);
  h = __builtin_shufflevector(mn, mx, 0, 5, 2, 7);
  va = l;
  vb = h;
}

/// One forward merge: the `want` smallest keys of ascending `a` and `b`,
/// ascending, into `dst`; with kRevB, `b` is non-increasing and is read
/// backwards. Each network step depends on the one before, so a lone merge
/// waits out that latency; step() lets two independent lanes interleave.
/// Run lanes as local copies (merge_finish takes one by value): a lane
/// whose address escapes keeps its registers in memory.
template <bool kRevB>
struct MergeLane {
  const Key* a;
  std::size_t na;
  const Key* b;
  std::size_t nb;
  Key* dst;
  std::size_t want;
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;
  v4k va{};
  v4k vb{};
  bool loaded = false;  ///< va and vb hold the first eight keys

  MergeLane(const Key* a_, std::size_t na_, const Key* b_, std::size_t nb_,
            Key* dst_, std::size_t want_)
      : a(a_), na(na_), b(b_), nb(nb_), dst(dst_), want(want_) {
    if (na >= 4 && nb >= 4 && want >= 4) {
      va = load4<false>(a, na, 0);
      vb = load4<kRevB>(b, nb, 0);
      i = 4;
      j = 4;
      loaded = true;
    }
  }

  /// True while a step can emit four keys and refill from either input.
  bool hot() const {
    return loaded && k + 4 <= want && i + 4 <= na && j + 4 <= nb;
  }

  void step() {
    bitonic_merge8(va, vb);
    std::memcpy(dst + k, &va, 32);
    k += 4;
    // Refill without a branch (the choice is a coin flip on overlapping
    // runs): load both candidates, keep one.
    const bool take_a = a[i] <= key_at<kRevB>(b, nb, j);
    const v4k pick = v4k{} - static_cast<Key>(take_a);
    va = (load4<false>(a, na, i) & pick) | (load4<kRevB>(b, nb, j) & ~pick);
    i += take_a ? 4 : 0;
    j += take_a ? 0 : 4;
  }
};

/// Runs lane `m` to its end: hot steps, then steps that check which input
/// can still refill, then a scalar finish once fewer than four keys are
/// left to load from the side the next refill needs.
template <bool kRevB>
void merge_finish(MergeLane<kRevB> m) {
  while (m.hot()) m.step();
  const Key* const a = m.a;
  const Key* const b = m.b;
  const std::size_t na = m.na;
  const std::size_t nb = m.nb;
  std::size_t i = m.i;
  std::size_t j = m.j;
  std::size_t k = m.k;
  Key carry[8];
  std::size_t nc = 0;
  if (m.loaded) {
    v4k va = m.va;
    v4k vb = m.vb;
    for (;;) {
      bitonic_merge8(va, vb);
      if (k + 4 > m.want) {
        std::memcpy(carry, &va, 32);
        std::memcpy(carry + 4, &vb, 32);
        nc = 8;
        break;
      }
      std::memcpy(m.dst + k, &va, 32);
      k += 4;
      const bool take_a =
          (j >= nb) || (i < na && a[i] <= key_at<kRevB>(b, nb, j));
      if (take_a) {
        if (i + 4 > na) {
          std::memcpy(carry, &vb, 32);
          nc = 4;
          break;
        }
        va = load4<false>(a, na, i);
        i += 4;
      } else {
        if (j + 4 > nb) {
          std::memcpy(carry, &vb, 32);
          nc = 4;
          break;
        }
        va = load4<kRevB>(b, nb, j);
        j += 4;
      }
    }
  }
  // Three-way finish: carry is sorted but not ordered against the unloaded
  // rests, so pick the minimum of the three heads each step.
  std::size_t c = 0;
  while (k < m.want) {
    Key best = 0;
    int src = -1;
    if (c < nc) {
      best = carry[c];
      src = 0;
    }
    if (i < na && (src < 0 || a[i] < best)) {
      best = a[i];
      src = 1;
    }
    if (j < nb && (src < 0 || key_at<kRevB>(b, nb, j) < best)) {
      best = key_at<kRevB>(b, nb, j);
      src = 2;
    }
    FTSORT_INVARIANT(src >= 0);
    if (src == 0)
      ++c;
    else if (src == 1)
      ++i;
    else
      ++j;
    m.dst[k++] = best;
  }
}

/// How many of the `m` smallest keys of a ∪ b to take from `a` (the merge
/// path): merging the two prefixes and the two rests apart yields the
/// merge. `b` reads as in MergeLane.
template <bool kRevB>
std::size_t co_rank(const Key* a, std::size_t na, const Key* b,
                    std::size_t nb, std::size_t m) {
  std::size_t lo = m > nb ? m - nb : 0;
  std::size_t hi = std::min(m, na);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (a[mid] < key_at<kRevB>(b, nb, m - mid - 1))
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

/// Below this many keys out, one lane beats two: the middle split's
/// search and the second lane's head and tail cost more than the
/// interleaving saves. The crossover is measured in DESIGN §6.
constexpr std::size_t kTwoLaneMin = 64;

/// The whole merge of `a` and `b` (read as in MergeLane) into `dst`. From
/// kTwoLaneMin keys on it runs as two lanes, split at the middle of the
/// output and stepped in turn.
template <bool kRevB>
void merge_all(const Key* a, std::size_t na, const Key* b, std::size_t nb,
               Key* dst) {
  if (na + nb < kTwoLaneMin) {
    merge_finish(MergeLane<kRevB>(a, na, b, nb, dst, na + nb));
    return;
  }
  const std::size_t m = (na + nb) / 2;
  const std::size_t i = co_rank<kRevB>(a, na, b, nb, m);
  const std::size_t j = m - i;
  // The first j keys of b's reading order, and the rest.
  const Key* const b_lo = kRevB ? b + (nb - j) : b;
  const Key* const b_hi = kRevB ? b : b + j;
  MergeLane<kRevB> lo(a, i, b_lo, j, dst, m);
  MergeLane<kRevB> hi(a + i, na - i, b_hi, nb - j, dst + m, na + nb - m);
  while (lo.hot() && hi.hot()) {
    lo.step();
    hi.step();
  }
  merge_finish(lo);
  merge_finish(hi);
}

/// When the two blocks' key ranges do not overlap, the union ascending is
/// one block followed by the other, so the kept half is at most two
/// copies. About two thirds of full-exchange merge-splits meet such blocks
/// (DESIGN §6), and copying them beats the network; on overlapping blocks
/// the test costs two key comparisons. Returns false, writing nothing,
/// when the ranges overlap. `mine` must be non-empty.
bool copy_if_disjoint(std::span<const Key> mine, std::span<const Key> theirs,
                      SplitHalf keep, Key* dst) {
  const bool mine_first = theirs.empty() || mine.back() <= theirs.front();
  if (!mine_first && theirs.back() > mine.front()) return false;
  const std::span<const Key> lo = mine_first ? mine : theirs;
  const std::span<const Key> hi = mine_first ? theirs : mine;
  const std::size_t want = mine.size();
  // Position of the kept half within lo ++ hi.
  const std::size_t first =
      keep == SplitHalf::Lower ? 0 : lo.size() + hi.size() - want;
  const std::size_t from_lo =
      first < lo.size() ? std::min(want, lo.size() - first) : 0;
  if (from_lo > 0) std::copy_n(lo.data() + first, from_lo, dst);
  if (from_lo < want)
    std::copy_n(hi.data() + (first + from_lo - lo.size()), want - from_lo,
                dst + from_lo);
  return true;
}

/// dst[t] = src[n-1-t] for t in [0, n).
void copy_reversed(std::span<const Key> src, Key* dst) {
  const std::size_t n = src.size();
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    const v4k v = load4<true>(src.data(), n, t);
    std::memcpy(dst + t, &v, 32);
  }
  for (; t < n; ++t) dst[t] = src[n - 1 - t];
}

// ---- Local finish of the half exchange ----------------------------------
//
// The Lower side's `back ++ kept` is min(A[k], B[b-1-k]) over the block:
// A ascends and B read backwards descends, so the sequence rises, then
// falls (a peak). The Upper side's `kept ++ back` is the max, which falls,
// then rises (a valley). Sorting it is one merge of its two monotone runs.
// The charged count is the scalar finish's, derived from where each half
// turns and from binary searches over the runs (DESIGN §6).

enum class Step { Change, Fall, Rise };

template <Step kStep>
inline bool is_step(Key cur, Key prev) {
  if constexpr (kStep == Step::Change) return cur != prev;
  if constexpr (kStep == Step::Fall) return cur < prev;
  return cur > prev;
}

/// First k in [from, n) where p[k] differs from p[k-1] (Change), is below
/// it (Fall) or above it (Rise); n when there is none. `from` >= 1.
template <Step kStep>
std::size_t first_step(const Key* p, std::size_t n, std::size_t from) {
  std::size_t k = from;
  for (; k + 4 <= n; k += 4) {
    v4k cur;
    v4k prev;
    std::memcpy(&cur, p + k, 32);
    std::memcpy(&prev, p + k - 1, 32);
    v4k hit;
    if constexpr (kStep == Step::Change)
      hit = cur != prev;
    else if constexpr (kStep == Step::Fall)
      hit = cur < prev;
    else
      hit = cur > prev;
    const int mask = lane_mask(hit);
    if (mask != 0)
      return k + static_cast<std::size_t>(
                     __builtin_ctz(static_cast<unsigned>(mask)));
  }
  for (; k < n; ++k)
    if (is_step<kStep>(p[k], p[k - 1])) return k;
  return n;
}

/// A monotone run: p[0, n) non-decreasing, or non-increasing when `desc`.
struct Run {
  const Key* p = nullptr;
  std::size_t n = 0;
  bool desc = false;
};

/// Up to two runs whose union is one sorted sequence; unused runs are
/// empty.
using Runs = std::array<Run, 2>;

/// Keys of `r` below `v`, or at most `v` when `or_equal`. In a
/// non-increasing run they are a suffix.
std::size_t count_below(const Run& r, Key v, bool or_equal) {
  const Key* const end = r.p + r.n;
  if (!r.desc)
    return static_cast<std::size_t>(
        (or_equal ? std::upper_bound(r.p, end, v)
                  : std::lower_bound(r.p, end, v)) -
        r.p);
  const Key* const cut =
      or_equal ? std::partition_point(r.p, end, [v](Key x) { return x > v; })
               : std::partition_point(r.p, end,
                                      [v](Key x) { return x >= v; });
  return static_cast<std::size_t>(end - cut);
}

/// Comparisons of the scalar two-way merge of the sorted unions of `a` and
/// `b`, ties taken from `a`: one per output until either input runs out.
/// `b` runs out after its own keys and a's keys <= max b; `a` after its own
/// keys and b's keys < max a.
std::uint64_t merge_count(const Runs& a, const Runs& b) {
  std::size_t na = 0;
  std::size_t nb = 0;
  Key amax = 0;
  Key bmax = 0;
  for (const Run& r : a)
    if (r.n > 0) {
      const Key top = r.desc ? r.p[0] : r.p[r.n - 1];
      amax = na == 0 ? top : std::max(amax, top);
      na += r.n;
    }
  for (const Run& r : b)
    if (r.n > 0) {
      const Key top = r.desc ? r.p[0] : r.p[r.n - 1];
      bmax = nb == 0 ? top : std::max(bmax, top);
      nb += r.n;
    }
  if (na == 0 || nb == 0) return 0;
  std::size_t ta = na;
  std::size_t tb = nb;
  for (const Run& r : b)
    if (r.n > 0) ta += count_below(r, amax, /*or_equal=*/false);
  for (const Run& r : a)
    if (r.n > 0) tb += count_below(r, bmax, /*or_equal=*/true);
  return std::min(ta, tb);
}

/// One half as the scalar `sort_unimodal` sees it.
struct Half {
  Runs runs;                 ///< its monotone runs; the second is empty
                             ///< unless the half turns
  std::uint64_t scan = 0;    ///< comparisons of sort_unimodal's turn scan
  std::size_t against = 0;   ///< first step against the block's first
                             ///< run (a fall in a peak, a rise in a
                             ///< valley); the half's size when none
};

/// `sort_unimodal` skips a leading plateau free of charge, pays one
/// comparison for the direction of the first step and one per key from
/// there up to and including the turn (or the end). In a peak only a half
/// that starts rising can turn, and it turns at its first fall; a valley
/// mirrors that.
Half analyse_half(std::span<const Key> x, bool peak) {
  const std::size_t n = x.size();
  const Key* const p = x.data();
  Half h;
  h.runs[0] = {p, n, false};
  h.against = n;
  if (n < 2) return h;
  const std::size_t f = first_step<Step::Change>(p, n, 1);
  if (f == n) return h;  // all equal
  const bool rising = p[f] > p[f - 1];
  h.runs[0].desc = !rising;
  if (rising != peak) {  // one run, already on the block's second run
    h.scan = 1 + (n - f);
    h.against = f;
    return h;
  }
  const std::size_t t = peak ? first_step<Step::Fall>(p, n, f + 1)
                             : first_step<Step::Rise>(p, n, f + 1);
  h.against = t;
  if (t == n) {
    h.scan = 1 + (n - f);
    return h;
  }
  h.scan = 1 + (t - f + 1);
  h.runs[0].n = t;
  h.runs[1] = {p + t, n - t, rising};
  return h;
}

/// Merges ascending `x` with non-increasing `d` read backwards into
/// dst[0, |x| + |d|). Keys below the other run's minimum or above its
/// maximum are copied, not merged; when the two ranges do not overlap
/// that is all the work.
void merge_fwd_rev(std::span<const Key> x, std::span<const Key> d, Key* dst) {
  if (!x.empty() && !d.empty()) {
    if (x.front() <= d.back()) {
      const auto i0 = static_cast<std::size_t>(
          std::upper_bound(x.begin(), x.end(), d.back()) - x.begin());
      std::copy_n(x.data(), i0, dst);
      dst += i0;
      x = x.subspan(i0);
    } else {
      const Key lo = x.front();
      const auto keep = static_cast<std::size_t>(
          std::partition_point(d.begin(), d.end(),
                               [lo](Key k) { return k >= lo; }) -
          d.begin());
      copy_reversed(d.subspan(keep), dst);
      dst += d.size() - keep;
      d = d.first(keep);
    }
  }
  if (!x.empty() && !d.empty()) {
    Key* const end = dst + x.size() + d.size();
    if (x.back() >= d.front()) {
      const auto i1 = static_cast<std::size_t>(
          std::upper_bound(x.begin(), x.end(), d.front()) - x.begin());
      std::copy(x.begin() + static_cast<std::ptrdiff_t>(i1), x.end(),
                end - (x.size() - i1));
      x = x.first(i1);
    } else {
      const Key hi = x.back();
      const auto j1 = static_cast<std::size_t>(
          std::partition_point(d.begin(), d.end(),
                               [hi](Key k) { return k > hi; }) -
          d.begin());
      copy_reversed(d.first(j1), end - j1);
      d = d.subspan(j1);
    }
  }
  if (d.empty()) {
    std::copy(x.begin(), x.end(), dst);
  } else if (x.empty()) {
    copy_reversed(d, dst);
  } else {
    merge_all<true>(x.data(), x.size(), d.data(), d.size(), dst);
  }
}

/// The keys at [lo, hi) of `first ++ second`, as one span in each.
std::array<std::span<const Key>, 2> slice(std::span<const Key> first,
                                          std::span<const Key> second,
                                          std::size_t lo, std::size_t hi) {
  const std::size_t nf = first.size();
  std::array<std::span<const Key>, 2> parts;
  if (lo < nf) parts[0] = first.subspan(lo, std::min(hi, nf) - lo);
  if (hi > nf) {
    const std::size_t from = std::max(lo, nf) - nf;
    parts[1] = second.subspan(from, hi - nf - from);
  }
  return parts;
}

}  // namespace

void merge_split_into_simd(std::span<const Key> mine,
                           std::span<const Key> theirs, SplitHalf keep,
                           std::vector<Key>& out,
                           std::uint64_t& comparisons) {
  const std::size_t want = mine.size();
  out.resize(want);
  if (want == 0) return;
  comparisons += merge_split_comparisons(mine, theirs, keep);
  if (copy_if_disjoint(mine, theirs, keep, out.data())) return;
  // The kept half is all of each input but the partner's leftovers: a
  // prefix of each for Lower, a suffix of each for Upper (which thus skips
  // the smallest keys by one merge-path search). One forward merge.
  const SplitRuns left = merge_split_leftovers(mine, theirs, keep);
  const std::size_t na = mine.size() - left.mine.size();
  const std::size_t nb = theirs.size() - left.theirs.size();
  const bool lower = keep == SplitHalf::Lower;
  merge_all<false>(lower ? mine.data() : mine.data() + left.mine.size(), na,
                   lower ? theirs.data() : theirs.data() + left.theirs.size(),
                   nb, out.data());
}

void pairwise_select_into_simd(std::span<const Key> a, std::span<const Key> b,
                               SplitHalf keep, std::vector<Key>& kept,
                               std::vector<Key>& returned,
                               std::uint64_t& comparisons) {
  FTSORT_REQUIRE(a.size() == b.size());
  const std::size_t n = a.size();
  kept.resize(n);
  returned.resize(n);
  comparisons += n;
  Key* const kp = kept.data();
  Key* const rp = returned.data();
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    v4k va;
    v4k vb;
    std::memcpy(&va, a.data() + t, 32);
    std::memcpy(&vb, b.data() + t, 32);
    const v4k lo = vmin4(va, vb);
    const v4k hi = vmax4(va, vb);
    std::memcpy(kp + t, keep == SplitHalf::Lower ? &lo : &hi, 32);
    std::memcpy(rp + t, keep == SplitHalf::Lower ? &hi : &lo, 32);
  }
  for (; t < n; ++t) {
    const Key lo = std::min(a[t], b[t]);
    const Key hi = std::max(a[t], b[t]);
    kp[t] = keep == SplitHalf::Lower ? lo : hi;
    rp[t] = keep == SplitHalf::Lower ? hi : lo;
  }
}

void pairwise_select_rev_into_simd(std::span<const Key> a,
                                   std::span<const Key> b, SplitHalf keep,
                                   std::vector<Key>& kept,
                                   std::vector<Key>& returned,
                                   std::uint64_t& comparisons) {
  FTSORT_REQUIRE(a.size() == b.size());
  const std::size_t n = a.size();
  kept.resize(n);
  returned.resize(n);
  comparisons += n;
  Key* const kp = kept.data();
  Key* const rp = returned.data();
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    v4k va;
    v4k vb;
    std::memcpy(&va, a.data() + t, 32);
    std::memcpy(&vb, b.data() + (n - t - 4), 32);
    vb = reverse4(vb);  // pairs a[t+l] with b[n-1-(t+l)]
    const v4k lo = vmin4(va, vb);
    const v4k hi = vmax4(va, vb);
    std::memcpy(kp + t, keep == SplitHalf::Lower ? &lo : &hi, 32);
    std::memcpy(rp + t, keep == SplitHalf::Lower ? &hi : &lo, 32);
  }
  for (; t < n; ++t) {
    const Key bt = b[n - 1 - t];
    const Key lo = std::min(a[t], bt);
    const Key hi = std::max(a[t], bt);
    kp[t] = keep == SplitHalf::Lower ? lo : hi;
    rp[t] = keep == SplitHalf::Lower ? hi : lo;
  }
}

void resort_halves_into_simd(std::span<const Key> kept,
                             std::span<const Key> back, SplitHalf keep,
                             std::vector<Key>& out,
                             std::uint64_t& comparisons) {
  const bool peak = keep == SplitHalf::Lower;
  const Half hk = analyse_half(kept, peak);
  const Half hb = analyse_half(back, peak);
  comparisons += hk.scan + hb.scan + merge_count(hk.runs, hb.runs);
  if (hk.runs[1].n > 0)
    comparisons += merge_count({hk.runs[0], Run{}}, {hk.runs[1], Run{}});
  if (hb.runs[1].n > 0)
    comparisons += merge_count({hb.runs[0], Run{}}, {hb.runs[1], Run{}});

  // The whole block, first ++ second, turns at its first step against its
  // first run: inside `first`, at the seam, or inside `second`.
  const std::span<const Key> first = peak ? back : kept;
  const std::span<const Key> second = peak ? kept : back;
  const Half& hf = peak ? hb : hk;
  const Half& hs = peak ? hk : hb;
  const std::size_t nf = first.size();
  const std::size_t n = nf + second.size();
  std::size_t turn = nf + hs.against;
  if (hf.against < nf)
    turn = hf.against;
  else if (nf > 0 && !second.empty() &&
           (peak ? second.front() < first.back()
                 : second.front() > first.back()))
    turn = nf;
  const auto up = peak ? slice(first, second, 0, turn)
                       : slice(first, second, turn, n);
  const auto down = peak ? slice(first, second, turn, n)
                         : slice(first, second, 0, turn);

  // At most one of the two runs spans the seam. Split the other by value
  // at the seam so each merge reads one span per run.
  out.resize(n);
  Key* const dst = out.data();
  if (!up[0].empty() && !up[1].empty()) {
    const std::span<const Key> d = down[0].empty() ? down[1] : down[0];
    const Key v = up[1].front();
    const auto m = static_cast<std::size_t>(
        std::partition_point(d.begin(), d.end(),
                             [v](Key k) { return k >= v; }) -
        d.begin());
    merge_fwd_rev(up[0], d.subspan(m), dst);
    merge_fwd_rev(up[1], d.first(m), dst + up[0].size() + (d.size() - m));
  } else if (!down[0].empty() && !down[1].empty()) {
    const std::span<const Key> u = up[0].empty() ? up[1] : up[0];
    const auto i = static_cast<std::size_t>(
        std::lower_bound(u.begin(), u.end(), down[0].back()) - u.begin());
    merge_fwd_rev(u.first(i), down[1], dst);
    merge_fwd_rev(u.subspan(i), down[0], dst + i + down[1].size());
  } else {
    merge_fwd_rev(up[0].empty() ? up[1] : up[0],
                  down[0].empty() ? down[1] : down[0], dst);
  }
}

}  // namespace ftsort::sort::detail
