// Allocation budget of key lineage (sim/lineage.hpp). Every campaign trial
// runs with lineage on, so its bookkeeping must stay a small multiple of
// the run it observes. This binary replaces the global operator new to
// count heap allocations, and compares one campaign-shaped recovery trial
// — 1,024 keys on Q_6, one node kill, trace ring and link stats on, the
// Sequential executor — with lineage off and on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/ft_sorter.hpp"
#include "sort/distribution.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ftsort {
namespace {

/// Lineage-on allocations may be at most this multiple of lineage-off.
constexpr double kMaxLineageAllocRatio = 2.5;

core::SortConfig trial_config() {
  core::SortConfig cfg;
  cfg.online_recovery = true;
  cfg.record_trace = true;
  cfg.trace_capacity = 4096;  // the campaign's flight-recorder ring
  cfg.record_link_stats = true;
  return cfg;
}

struct Measured {
  std::uint64_t allocations = 0;  ///< sorter construction and sort
  core::SortOutcome out;
};

Measured measure(const core::SortConfig& cfg,
                 const std::vector<sort::Key>& keys) {
  const std::uint64_t before = g_allocations.load();
  const core::FaultTolerantSorter sorter(6, fault::FaultSet(6), cfg);
  core::SortOutcome out = sorter.sort(keys);
  return {g_allocations.load() - before, std::move(out)};
}

TEST(LineageCost, RecoveryTrialAllocationsStayWithinBudget) {
  util::Rng rng(1024);
  const auto keys = sort::gen_uniform(1'024, rng);

  core::SortConfig cfg = trial_config();
  const sim::SimTime t0 =
      core::FaultTolerantSorter(6, fault::FaultSet(6), cfg)
          .sort(keys)
          .report.makespan;
  cfg.recovery.detect_patience = 1.0 * t0;
  cfg.recovery.collect_patience = 2.5 * t0;
  cfg.recovery.verdict_patience = 50.0 * t0;
  cfg.injector.kill_node_at(37, 0.5 * t0);

  const Measured off = measure(cfg, keys);
  cfg.record_lineage = true;
  const Measured on = measure(cfg, keys);
  // A real recovery trial: the kill landed and the audit closed.
  ASSERT_EQ(on.out.report.killed_nodes, std::vector<cube::NodeId>{37});
  EXPECT_TRUE(on.out.report.lineage.audit.ok);
  ASSERT_GT(off.allocations, 0u);
  RecordProperty("allocations_off", std::to_string(off.allocations));
  RecordProperty("allocations_on", std::to_string(on.allocations));
  EXPECT_LE(static_cast<double>(on.allocations),
            kMaxLineageAllocRatio * static_cast<double>(off.allocations))
      << on.allocations << " allocations with lineage on vs "
      << off.allocations << " off";
}

}  // namespace
}  // namespace ftsort
