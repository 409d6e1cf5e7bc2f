// The Steps 3-8 exchange schedule (sort/schedule.hpp): the one place the
// paper's exchange order is written down, read by the plain and the
// guarded interpreter. Both sides of every exchange must agree on it, and
// each node's step count must follow the s(s+1)/2 and m(m+1)/2 terms.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <tuple>
#include <vector>

#include "fault/scenario.hpp"
#include "sort/schedule.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

using sort::ScheduleStep;
using sort::Step8Mode;

std::uint32_t triangle(cube::Dim d) {
  const auto u = static_cast<std::uint32_t>(d);
  return u * (u + 1) / 2;
}

/// Plans over Q_3-Q_7 with 0 ... n-1 random faults, two draws each.
std::vector<partition::Plan> sampled_plans() {
  std::vector<partition::Plan> plans;
  util::Rng rng(3150);
  for (cube::Dim n = 3; n <= 7; ++n)
    for (int r = 0; r < n; ++r)
      for (int draw = 0; draw < 2; ++draw)
        plans.push_back(partition::Plan::build(
            fault::random_faults(n, static_cast<std::size_t>(r), rng)));
  return plans;
}

struct Placed {
  ScheduleStep step;
  sim::Phase phase;
};

/// Every live node's steps, keyed by (node, partner, tag).
std::map<std::tuple<cube::NodeId, cube::NodeId, sim::Tag>, Placed> all_steps(
    const partition::Plan& plan, Step8Mode step8) {
  std::map<std::tuple<cube::NodeId, cube::NodeId, sim::Tag>, Placed> out;
  for (const cube::NodeId u : sort::slot_order(plan)) {
    const sort::Schedule sched = sort::node_schedule(plan, step8, u);
    for (const sort::ScheduleRound& round : sched.rounds)
      for (const ScheduleStep& st : sched.steps_of(round))
        EXPECT_TRUE(out.emplace(std::tuple(u, st.partner, st.tag),
                                Placed{st, round.phase})
                        .second)
            << "node " << u << " reuses tag " << st.tag;
  }
  return out;
}

TEST(Schedule, EveryStepHasAMirrorAtItsPartner) {
  for (const partition::Plan& plan : sampled_plans())
    for (const Step8Mode step8 :
         {Step8Mode::FullSort, Step8Mode::BitonicMerge}) {
      const auto steps = all_steps(plan, step8);
      for (const auto& [key, mine] : steps) {
        const auto [u, p, tag] = key;
        const auto it = steps.find(std::tuple(p, u, tag));
        ASSERT_NE(it, steps.end())
            << plan.to_string() << ": node " << u << " -> " << p << " tag "
            << tag << " has no mirror";
        const Placed& theirs = it->second;
        EXPECT_TRUE(plan.role_of(p).live);
        EXPECT_EQ(theirs.step.kind, mine.step.kind);
        EXPECT_EQ(theirs.step.index, mine.step.index);
        EXPECT_EQ(theirs.step.dim, mine.step.dim);
        EXPECT_EQ(theirs.step.fault_pair, mine.step.fault_pair);
        EXPECT_EQ(theirs.phase, mine.phase);
        if (mine.step.kind == ScheduleStep::Kind::MergeSplit) {
          EXPECT_NE(theirs.step.keep, mine.step.keep)
              << plan.to_string() << ": " << u << " and " << p
              << " keep the same half at tag " << tag;
        }
      }
    }
}

TEST(Schedule, StepCountsFollowTheTriangularTerms) {
  for (const partition::Plan& plan : sampled_plans()) {
    const cube::Dim s = plan.s();
    const cube::Dim m = plan.m();
    for (const Step8Mode step8 :
         {Step8Mode::FullSort, Step8Mode::BitonicMerge}) {
      const std::uint32_t length = sort::schedule_length(s, m, step8);
      const std::uint32_t tag_span = sort::schedule_tag_span(s, m);
      for (const cube::NodeId u : sort::slot_order(plan)) {
        const cube::NodeId lw = plan.role_of(u).logical_w;
        // A live node next to the dead logical 0 (lw = 2^j) skips the
        // substeps along j: s - j of them in a sort, one in a merge.
        const bool beside_dead = plan.has_dead() && std::has_single_bit(lw);
        const auto j0 = static_cast<std::uint32_t>(std::countr_zero(lw));
        const std::uint32_t sort_steps =
            triangle(s) -
            (beside_dead ? static_cast<std::uint32_t>(s) - j0 : 0u);
        const std::uint32_t merge_steps =
            static_cast<std::uint32_t>(s) - (beside_dead ? 1u : 0u);

        const sort::Schedule sched =
            sort::node_schedule(plan, step8, u);
        ASSERT_EQ(sched.rounds.size(), 1 + 2 * triangle(m));
        EXPECT_EQ(sched.rounds[0].phase, sim::Phase::SubcubeSort);
        EXPECT_EQ(sched.steps_of(sched.rounds[0]).size(), sort_steps);
        for (std::size_t r = 0; r < sched.rounds.size(); r += 2)
          for (const ScheduleStep& st : sched.steps_of(sched.rounds[r]))
            EXPECT_EQ(st.dim, -1) << "only Step 7 carries a dimension";
        for (std::size_t r = 1; r < sched.rounds.size(); r += 2) {
          const auto exchange = sched.steps_of(sched.rounds[r]);
          EXPECT_EQ(sched.rounds[r].phase, sim::Phase::MergeExchange);
          ASSERT_EQ(exchange.size(), 1u);
          EXPECT_GE(exchange[0].dim, 0);
          EXPECT_LT(exchange[0].dim, m);

          const auto resort = sched.steps_of(sched.rounds[r + 1]);
          EXPECT_EQ(sched.rounds[r + 1].phase, sim::Phase::Resort);
          if (step8 == Step8Mode::FullSort) {
            EXPECT_EQ(resort.size(), sort_steps);
            continue;
          }
          const bool swaps = !resort.empty() &&
                             resort.back().kind == ScheduleStep::Kind::Swap;
          EXPECT_EQ(resort.size(), merge_steps + (swaps ? 1u : 0u));
          if (swaps) {  // the reversal pairs w with 2^s - w
            EXPECT_EQ(plan.role_of(resort.back().partner).logical_w,
                      cube::num_nodes(s) - lw);
          }
        }

        std::uint32_t next_index = 0;
        for (const ScheduleStep& st : sched.steps) {
          EXPECT_GE(st.index, next_index) << "indices must rise";
          next_index = st.index + 1;
          EXPECT_LT(st.tag + 1, tag_span);
        }
        EXPECT_LE(next_index, length);
      }
    }
  }
}

}  // namespace
}  // namespace ftsort
