#include "sort/schedule.hpp"

#include <algorithm>

#include "sort/distribution.hpp"
#include "sort/sequential.hpp"
#include "util/contracts.hpp"

namespace ftsort::sort {

namespace {

std::uint32_t triangle(cube::Dim d) {
  const auto u = static_cast<std::uint32_t>(d);
  return u * (u + 1) / 2;
}

/// Indices of one Step 8 re-sort: the merge's s substeps and its swap.
std::uint32_t resort_length(cube::Dim s, Step8Mode step8) {
  return step8 == Step8Mode::FullSort ? triangle(s)
                                      : static_cast<std::uint32_t>(s) + 1;
}

ScheduleStep merge_split(cube::NodeId partner, bool keep_lower,
                         sim::Tag tag, std::uint32_t index) {
  return {ScheduleStep::Kind::MergeSplit,
          keep_lower ? SplitHalf::Lower : SplitHalf::Upper, partner, tag,
          index};
}

/// Closes a round over the steps emitted since the previous one.
void close_round(Schedule& out, sim::Phase phase) {
  const std::uint32_t begin = out.rounds.empty() ? 0 : out.rounds.back().end;
  out.rounds.push_back(
      {phase, begin, static_cast<std::uint32_t>(out.steps.size())});
}

/// One round of block bitonic sort of `lc`, seen from logical `lw`.
void sort_round(Schedule& out, sim::Phase phase, const LogicalCube& lc,
                cube::NodeId lw, bool ascending, sim::Tag tag,
                std::uint32_t index) {
  for (cube::Dim i = 0; i < lc.s; ++i) {
    for (cube::Dim j = i; j >= 0; --j, tag += 2, ++index) {
      const cube::NodeId partner = cube::neighbor(lw, j);
      if (lc.is_dead(partner)) continue;  // dead partner: no exchange
      // Direction bit: within stage i it is bit i+1 of the logical address;
      // the final stage (i == s-1) fixes the overall order. A descending
      // sort mirrors the *whole* network (equivalent to sorting negated
      // keys ascending): only then does the dead node at logical 0 always
      // sit in a sub-sort whose extreme element belongs at address 0, which
      // is what makes the §2.1 skip rule safe in both directions.
      const int stage_bit = (i + 1 == lc.s) ? 0 : cube::bit(lw, i + 1);
      const int dir_bit = ascending ? stage_bit : 1 - stage_bit;
      out.steps.push_back(merge_split(
          lc.phys[partner], cube::bit(lw, j) == dir_bit, tag, index));
    }
  }
  close_round(out, phase);
}

/// One Resort round of block bitonic merge of `lc`, seen from logical `lw`.
void merge_round(Schedule& out, const LogicalCube& lc, cube::NodeId lw,
                 bool ascending, SplitHalf content_side, sim::Tag tag,
                 std::uint32_t index) {
  // Without a hole any direction is sound; with the dead node the merge
  // must run in the direction matching the content side, then reverse
  // block order across live addresses with the involution w <-> 2^s - w
  // (never touches logical 0).
  const bool compatible = content_side == SplitHalf::Lower;
  const bool reverse = lc.dead0 && ascending != compatible;
  const int dir_bit = (reverse ? compatible : ascending) ? 0 : 1;
  for (cube::Dim j = lc.s - 1; j >= 0; --j, tag += 2, ++index) {
    const cube::NodeId partner = cube::neighbor(lw, j);
    if (lc.is_dead(partner)) continue;
    out.steps.push_back(merge_split(
        lc.phys[partner], cube::bit(lw, j) == dir_bit, tag, index));
  }
  const cube::NodeId mirror = lc.size() - lw;
  if (reverse && mirror != lw)
    out.steps.push_back({ScheduleStep::Kind::Swap, SplitHalf::Lower,
                         lc.phys[mirror], tag, index});
  close_round(out, sim::Phase::Resort);
}

/// Preconditions of block_bitonic_sort and block_bitonic_merge.
void require_member(const sim::NodeCtx& ctx, const LogicalCube& lc,
                    cube::NodeId me_logical, const std::vector<Key>& block) {
  FTSORT_REQUIRE(cube::valid_node(me_logical, lc.s));
  FTSORT_REQUIRE(!lc.is_dead(me_logical));
  FTSORT_REQUIRE(lc.phys[me_logical] == ctx.id());
  FTSORT_REQUIRE(is_ascending(block));
}

}  // namespace

Schedule node_schedule(const partition::Plan& plan, Step8Mode step8,
                       cube::NodeId u) {
  const partition::Plan::Role role = plan.role_of(u);
  FTSORT_REQUIRE(role.live);
  const cube::NodeId v = role.v;
  const cube::NodeId lw = role.logical_w;
  const cube::Dim s = plan.s();
  const cube::Dim m = plan.m();
  // Step 1: subcube v re-indexed so its dead node is logical 0.
  LogicalCube lc{s, std::vector<cube::NodeId>(cube::num_nodes(s)),
                 plan.has_dead()};
  for (cube::NodeId w = 0; w < lc.size(); ++w)
    lc.phys[w] = plan.physical(v, w);

  // Tag layout: [0, T_s) Step 3; then two tags per Step 7 exchange; then
  // one resort span per Step 8.
  const std::uint32_t ts = bitonic_tag_span(s);
  const std::uint32_t resort_span =
      std::max(ts, bitonic_merge_tag_span(s));
  const std::uint32_t resort_base = ts + triangle(m) * 2;
  // Index layout: Step 3, then per exchange one index and Step 8's.
  const std::uint32_t per_exchange = 1 + resort_length(s, step8);

  Schedule out;
  out.rounds.reserve(1 + 2 * triangle(m));
  out.steps.reserve(schedule_length(s, m, step8));
  sort_round(out, sim::Phase::SubcubeSort, lc, lw,
             m == 0 || cube::bit(v, 0) == 0, 0, 0);
  std::uint32_t k = 0;  // Step 7 exchange number
  for (cube::Dim i = 0; i < m; ++i) {
    // Step 5: mask = v_{i+1} (v_m = 0).
    const int mask = (i + 1 == m) ? 0 : cube::bit(v, i + 1);
    for (cube::Dim j = i; j >= 0; --j, ++k) {
      // Step 7: merge-split with the corresponding processor of the
      // neighbouring subcube along dimension j.
      const cube::NodeId v2 = cube::neighbor(v, j);
      ScheduleStep st = merge_split(plan.physical(v2, lw),
                                    cube::bit(v, j) == mask, ts + k * 2,
                                    triangle(s) + k * per_exchange);
      st.dim = j;
      st.fault_pair =
          plan.has_dead() && plan.dead_is_fault(v) && plan.dead_is_fault(v2);
      out.steps.push_back(st);
      close_round(out, sim::Phase::MergeExchange);
      // Step 8: re-sort this subcube; ascending iff v_{j-1} == mask
      // (v_{-1} = 0). The content is blockwise bitonic after the split, so
      // the merge variant needs only s substeps.
      const bool ascending = ((j == 0) ? 0 : cube::bit(v, j - 1)) == mask;
      const sim::Tag tag = resort_base + k * resort_span;
      if (step8 == Step8Mode::BitonicMerge)
        merge_round(out, lc, lw, ascending, st.keep, tag, st.index + 1);
      else
        sort_round(out, sim::Phase::Resort, lc, lw, ascending, tag,
                   st.index + 1);
    }
  }
  return out;
}

std::uint32_t schedule_length(cube::Dim s, cube::Dim m, Step8Mode step8) {
  return triangle(s) + triangle(m) * (1 + resort_length(s, step8));
}

std::uint32_t schedule_tag_span(cube::Dim s, cube::Dim m) {
  const std::uint32_t ts = bitonic_tag_span(s);
  const std::uint32_t resort_span = std::max(ts, bitonic_merge_tag_span(s));
  return ts + triangle(m) * 2 + (triangle(m) + 1) * resort_span + 1;
}

sim::Task<void> run_schedule(sim::NodeCtx& ctx, const Schedule& schedule,
                             std::vector<Key>& block,
                             ExchangeProtocol protocol,
                             ExchangeScratch& scratch) {
  for (const ScheduleRound& round : schedule.rounds) {
    // §3 audit: corresponding processors of neighbouring subcubes are one
    // hop apart before re-indexing; whatever the router charges beyond that
    // is the measured re-index penalty along dimension j.
    if (ctx.link_stats_enabled())
      for (const ScheduleStep& st : schedule.steps_of(round))
        if (st.dim >= 0)
          ctx.note_reindex_hops(st.dim, ctx.hops_to(st.partner) - 1,
                                st.fault_pair);
    const sim::PhaseSpan span = ctx.span_if_unattributed(round.phase);
    for (const ScheduleStep& st : schedule.steps_of(round)) {
      if (st.kind == ScheduleStep::Kind::MergeSplit) {
        co_await exchange_merge_split_into(ctx, st.partner, st.tag, block,
                                           scratch, st.keep, protocol);
        continue;
      }
      // The merge's reversal swap: trade whole blocks.
      ctx.send(st.partner, st.tag, std::move(block));
      sim::Message msg = co_await ctx.recv(st.partner, st.tag);
      msg.payload.release_into(block);
      if (ctx.lineage_enabled())
        ctx.note_lineage_retain(st.partner, st.tag, block);
    }
  }
  co_return;
}

sim::Task<void> block_bitonic_sort(sim::NodeCtx& ctx, const LogicalCube& lc,
                                   cube::NodeId me_logical,
                                   std::vector<Key>& block, bool ascending,
                                   ExchangeProtocol protocol,
                                   sim::Tag tag_base,
                                   ExchangeScratch* scratch) {
  require_member(ctx, lc, me_logical, block);
  Schedule one;
  sort_round(one, sim::Phase::SubcubeSort, lc, me_logical, ascending,
             tag_base, 0);
  ExchangeScratch local;
  co_await run_schedule(ctx, one, block, protocol,
                        scratch != nullptr ? *scratch : local);
}

sim::Task<void> block_bitonic_merge(sim::NodeCtx& ctx,
                                    const LogicalCube& lc,
                                    cube::NodeId me_logical,
                                    std::vector<Key>& block, bool ascending,
                                    SplitHalf content_side,
                                    ExchangeProtocol protocol,
                                    sim::Tag tag_base,
                                    ExchangeScratch* scratch) {
  require_member(ctx, lc, me_logical, block);
  Schedule one;
  merge_round(one, lc, me_logical, ascending, content_side, tag_base, 0);
  ExchangeScratch local;
  co_await run_schedule(ctx, one, block, protocol,
                        scratch != nullptr ? *scratch : local);
}

std::vector<cube::NodeId> slot_order(const partition::Plan& plan) {
  std::vector<cube::NodeId> slots;
  slots.reserve(plan.live_count());
  for (cube::NodeId v = 0; v < plan.num_subcubes(); ++v)
    for (cube::NodeId lw = plan.has_dead() ? 1 : 0;
         lw < cube::num_nodes(plan.s()); ++lw)
      slots.push_back(plan.physical(v, lw));
  return slots;
}

std::vector<std::vector<Key>> scatter_to_slots(
    std::vector<std::vector<Key>> blocks, std::span<const cube::NodeId> slots,
    std::uint32_t num_nodes) {
  FTSORT_REQUIRE(blocks.size() == slots.size());
  std::vector<std::vector<Key>> block_of(num_nodes);
  for (std::size_t k = 0; k < slots.size(); ++k)
    block_of[slots[k]] = std::move(blocks[k]);
  return block_of;
}

std::vector<Key> gather_from_slots(std::span<const cube::NodeId> slots,
                                   std::vector<std::vector<Key>>& block_of) {
  std::vector<std::vector<Key>> in_order;
  in_order.reserve(slots.size());
  for (const cube::NodeId u : slots)
    in_order.push_back(std::move(block_of[u]));
  return gather_and_strip(in_order);
}

}  // namespace ftsort::sort
