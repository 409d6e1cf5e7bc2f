#include "sort/spmd_bitonic.hpp"

#include <numeric>
#include <utility>

namespace ftsort::sort {

LogicalCube LogicalCube::identity(cube::Dim s) {
  LogicalCube lc;
  lc.s = s;
  lc.phys.resize(cube::num_nodes(s));
  std::iota(lc.phys.begin(), lc.phys.end(), cube::NodeId{0});
  return lc;
}

std::uint32_t bitonic_tag_span(cube::Dim s) {
  // s(s+1)/2 compare-exchange steps, two tags each.
  const auto steps = static_cast<std::uint32_t>(s) *
                     (static_cast<std::uint32_t>(s) + 1) / 2;
  return steps * 2;
}

namespace {

sim::Task<void> half_exchange(sim::NodeCtx& ctx, cube::NodeId partner,
                              sim::Tag tag, std::vector<Key>& block,
                              ExchangeScratch& scratch, SplitHalf keep) {
  // Pairing: with both blocks ascending, the b smallest of A ∪ B are
  // { min(A[k], B[b-1-k]) } and the b largest { max(A[k], B[b-1-k]) }.
  // The Lower side evaluates pairs k in [h, b), the Upper side k in [0, h),
  // h = b/2 — so each key crosses the wire at most once each way and the
  // per-step traffic matches the paper's ⌈M/2N'⌉ terms. The reversed
  // indexing of the second element of each pair happens inside
  // pairwise_select_rev_into; no reversed copies are materialised.
  const std::size_t b = block.size();
  const std::size_t h = b / 2;
  const std::span<const Key> mine(block);
  std::uint64_t comparisons = 0;

  if (keep == SplitHalf::Lower) {
    // Send my bottom half A[0..h); partner needs it for pairs k in [0, h).
    ctx.send(partner, tag, mine.first(h));
    // Receive partner's bottom part B[0..b-h).
    sim::Message msg = co_await ctx.recv(partner, tag);
    FTSORT_REQUIRE(msg.payload.size() == b - h);
    // My pairs: a[t] = A[h+t], b[t] = B[b-1-(h+t)] = reversed(received)[t].
    pairwise_select_rev_into(mine.subspan(h), msg.payload.span(),
                             SplitHalf::Lower, scratch.kept,
                             scratch.returned, comparisons);
    ctx.charge_compares(comparisons);
    comparisons = 0;
    // Return the losers (maxes) to the partner.
    ctx.send(partner, tag + 1, std::span<const Key>(scratch.returned));
    // Receive the winners (mins) of the partner's pairs.
    sim::Message back = co_await ctx.recv(partner, tag + 1);
    FTSORT_REQUIRE(back.payload.size() == h);
    // back ++ kept is min(A[k], B[b-1-k]) over the block: it rises, then
    // falls, and sorting it yields the b smallest keys.
    resort_halves_into(scratch.kept, back.payload.span(), SplitHalf::Lower,
                       scratch.merged, scratch.unimodal, comparisons);
    ctx.charge_compares(comparisons);
    FTSORT_ENSURE(scratch.merged.size() == b);
    std::swap(block, scratch.merged);
    if (ctx.lineage_enabled()) ctx.note_lineage_retain(partner, tag, block);
    co_return;
  }

  // Upper side: send my bottom part B[0..b-h); partner pairs k in [h, b).
  ctx.send(partner, tag, mine.first(b - h));
  sim::Message msg = co_await ctx.recv(partner, tag);
  FTSORT_REQUIRE(msg.payload.size() == h);
  // My pairs k in [0, h): a[t] = A[t] (received), b[t] = B[b-1-t] = the top
  // of my own block read backwards.
  pairwise_select_rev_into(msg.payload.span(), mine.last(h),
                           SplitHalf::Upper, scratch.kept, scratch.returned,
                           comparisons);
  ctx.charge_compares(comparisons);
  comparisons = 0;
  ctx.send(partner, tag + 1, std::span<const Key>(scratch.returned));
  sim::Message back = co_await ctx.recv(partner, tag + 1);
  FTSORT_REQUIRE(back.payload.size() == b - h);
  // My final multiset: the kept/returned sets already contain every key
  // exactly once — kept (h maxes) + back.payload (b-h maxes from the
  // partner's pairs); the top of my block served only as comparison input.
  // kept ++ back is max(A[k], B[b-1-k]): it falls, then rises.
  resort_halves_into(scratch.kept, back.payload.span(), SplitHalf::Upper,
                     scratch.merged, scratch.unimodal, comparisons);
  ctx.charge_compares(comparisons);
  FTSORT_ENSURE(scratch.merged.size() == b);
  std::swap(block, scratch.merged);
  if (ctx.lineage_enabled()) ctx.note_lineage_retain(partner, tag, block);
  co_return;
}

}  // namespace

sim::Task<void> exchange_merge_split_into(
    sim::NodeCtx& ctx, cube::NodeId partner, sim::Tag tag,
    std::vector<Key>& block, ExchangeScratch& scratch, SplitHalf keep,
    ExchangeProtocol protocol) {
  // Generic tag; a caller's step-level span (e.g. ft_sorter's
  // MergeExchange/Resort) takes precedence.
  const sim::PhaseSpan span =
      ctx.span_if_unattributed(sim::Phase::MergeExchange);
  if (protocol == ExchangeProtocol::HalfExchange) {
    co_await half_exchange(ctx, partner, tag, block, scratch, keep);
    co_return;
  }

  // Full exchange: swap entire blocks, split locally.
  ctx.send(partner, tag, std::span<const Key>(block));
  sim::Message msg = co_await ctx.recv(partner, tag);
  std::uint64_t comparisons = 0;
  merge_split_into(block, msg.payload.span(), keep, scratch.merged,
                   comparisons);
  ctx.charge_compares(comparisons);
  std::swap(block, scratch.merged);
  // Custody commits here, at the merge — never at send/recv: the wire
  // carried a copy (sim/lineage.hpp).
  if (ctx.lineage_enabled()) ctx.note_lineage_retain(partner, tag, block);
  co_return;
}

sim::Task<std::vector<Key>> exchange_merge_split(
    sim::NodeCtx& ctx, cube::NodeId partner, sim::Tag tag,
    std::vector<Key> block, SplitHalf keep, ExchangeProtocol protocol) {
  ExchangeScratch scratch;
  co_await exchange_merge_split_into(ctx, partner, tag, block, scratch, keep,
                                     protocol);
  co_return std::move(block);
}

std::uint32_t bitonic_merge_tag_span(cube::Dim s) {
  return static_cast<std::uint32_t>(s) * 2 + 1;
}

}  // namespace ftsort::sort
