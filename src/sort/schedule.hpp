// One node's Steps 3-8 of the fault-tolerant sort (§3), as data.
//
// Step 3 sorts every subcube with the single-fault block bitonic sort,
// ascending iff the subcube address v is even. Steps 4-8 then run, for
// i = 0..m-1 and j = i..0, a merge-split between corresponding live
// processors of the subcubes adjacent along dimension j (keep the lower
// half iff v_j == mask, mask = v_{i+1}, v_m = 0), after which each subcube
// re-sorts itself (ascending iff v_{j-1} == mask, v_{-1} = 0).
// `node_schedule` writes that order out for one node, as steps grouped
// into rounds; the rules live nowhere else. Two interpreters read it:
// `run_schedule` below (the plain streaming sort; block_bitonic_sort and
// block_bitonic_merge are one-round schedules run by it) and the guarded
// loop of core/recovery.cpp (whole-block swaps, a timeout on
// every partner wait, a witness per step).
//
// A step's `tag` is the plain interpreter's wire tag. Its `index` numbers
// the node-independent sequence of (stage, substep) positions, which
// advances whether or not the node exchanges there, so both sides of an
// exchange agree on it; recovery uses it as tag offset and witness age.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "partition/plan.hpp"
#include "sort/spmd_bitonic.hpp"

namespace ftsort::sort {

/// How Step 8 restores intra-subcube order after each Step 7 exchange.
enum class Step8Mode {
  /// Full block bitonic sort, s(s+1)/2 substeps: the paper's literal Step 8
  /// and the s(s+3)/2 term of its cost formula T.
  FullSort,
  /// Block bitonic merge, s substeps: the content is blockwise bitonic
  /// right after a Step 7 split. Reproduces the paper's Figure 7
  /// crossovers, which the formula's full sort would lose.
  BitonicMerge,
};

struct ScheduleStep {
  enum class Kind : std::uint8_t {
    MergeSplit,  ///< keep `keep` of the union of both blocks
    Swap,        ///< trade whole blocks: the merge's reversal w <-> 2^s - w
  };
  Kind kind = Kind::MergeSplit;
  SplitHalf keep = SplitHalf::Lower;  ///< MergeSplit only
  cube::NodeId partner = 0;           ///< machine address
  sim::Tag tag = 0;  ///< plain wire tag (the half exchange also uses tag+1)
  std::uint32_t index = 0;  ///< position in the node-independent sequence
  /// Step 7 only: the subcube dimension j, and whether both subcubes' dead
  /// nodes are faults (the scope of the §3 re-index audit).
  cube::Dim dim = -1;
  bool fault_pair = false;
};

/// The steps one phase span covers: Step 3's sort, one Step 7 exchange or
/// one Step 8 re-sort. A round may hold no step at all.
struct ScheduleRound {
  sim::Phase phase = sim::Phase::Unattributed;
  std::uint32_t begin = 0;  ///< [begin, end) in Schedule::steps
  std::uint32_t end = 0;
};

struct Schedule {
  std::vector<ScheduleRound> rounds;
  std::vector<ScheduleStep> steps;

  std::span<const ScheduleStep> steps_of(const ScheduleRound& r) const {
    return std::span<const ScheduleStep>(steps).subspan(r.begin,
                                                        r.end - r.begin);
  }
};

/// Steps 3-8 of live machine node `u` under `plan`. Rounds: one
/// SubcubeSort, then per (i, j) one MergeExchange and one Resort. The Step
/// 3 round, and each FullSort Step 8 round, is block_bitonic_sort's; each
/// BitonicMerge Step 8 round is block_bitonic_merge's.
Schedule node_schedule(const partition::Plan& plan, Step8Mode step8,
                       cube::NodeId u);

/// Length of the index sequence of a node schedule, the same on every
/// node: s(s+1)/2 for Step 3, then per Step 7 exchange one index plus
/// Step 8's s(s+1)/2 (FullSort) or s + 1 (BitonicMerge).
std::uint32_t schedule_length(cube::Dim s, cube::Dim m, Step8Mode step8);

/// Wire tags a plain node schedule reserves from tag 0, one spare Step 8
/// span and one guard tag included. A driver's own tags start here.
std::uint32_t schedule_tag_span(cube::Dim s, cube::Dim m);

/// The plain interpreter: runs every round of `schedule` under
/// span_if_unattributed(round.phase), each MergeSplit step through
/// exchange_merge_split_into with `protocol`. block_bitonic_sort and
/// block_bitonic_merge (defined with it) each run a one-round schedule.
sim::Task<void> run_schedule(sim::NodeCtx& ctx, const Schedule& schedule,
                             std::vector<Key>& block,
                             ExchangeProtocol protocol,
                             ExchangeScratch& scratch);

/// The plan's live processors in (subcube v, logical w) order: the order of
/// Step 2's blocks, of lineage ids and of the sorted output.
std::vector<cube::NodeId> slot_order(const partition::Plan& plan);

/// Step 2: block k goes to machine node slots[k]. Indexed by machine
/// address; nodes outside `slots` get no block.
std::vector<std::vector<Key>> scatter_to_slots(
    std::vector<std::vector<Key>> blocks, std::span<const cube::NodeId> slots,
    std::uint32_t num_nodes);

/// The blocks of `slots`, moved out in slot order, dummies stripped.
std::vector<Key> gather_from_slots(std::span<const cube::NodeId> slots,
                                   std::vector<std::vector<Key>>& block_of);

}  // namespace ftsort::sort
