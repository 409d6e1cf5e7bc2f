// Key-lineage provenance (sim::Lineage, RunReport::lineage) and the
// `ftdiag lineage` CLI.
//
// Lineage is a logical-clock artifact like Timeline: custody commits at
// deterministic merge points and hop charges are integer sums, so
// snapshots must be byte-identical across executors, enabling the flag
// must charge zero simulated time, and the conservation invariant —
// Σ per-key per-dimension hops + untracked == LinkStats key_hops — must
// hold exactly. The suites all start with "Lineage" so the tsan preset's
// name filter picks them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/mfs_sorter.hpp"
#include "core/ft_sorter.hpp"
#include "core/outcome.hpp"
#include "fault/scenario.hpp"
#include "sim/exporters.hpp"
#include "sim/lineage.hpp"
#include "sim/link_stats.hpp"
#include "sort/distribution.hpp"
#include "sort/single_fault.hpp"
#include "tools/ftdiag.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

// The pinned fig7 flagship (no kills, static faults only) and the pinned
// recovery scenario (node 6 dies mid-sort) — the same seeds the other
// observability suites use, so golden values stay comparable.

core::SortOutcome run_fig7(core::Executor exec, bool lineage) {
  util::Rng rng(1706);
  const fault::FaultSet faults = fault::random_faults(6, 2, rng);
  const auto keys = sort::gen_uniform(3'200, rng);
  core::SortConfig cfg;
  cfg.protocol = sort::ExchangeProtocol::FullExchange;
  cfg.executor = exec;
  cfg.record_metrics = true;
  cfg.record_link_stats = true;
  cfg.record_lineage = lineage;
  const core::FaultTolerantSorter sorter(6, faults, cfg);
  return sorter.sort(keys);
}

core::SortOutcome run_recovery(core::Executor exec, bool lineage = true) {
  util::Rng rng(1703);
  const fault::FaultSet faults = fault::random_faults(3, 1, rng);
  const auto keys = sort::gen_uniform(200, rng);
  core::SortConfig cfg;
  cfg.executor = exec;
  cfg.online_recovery = true;
  cfg.injector.kill_node_at(6, 2000.0);
  cfg.record_metrics = true;
  cfg.record_trace = true;
  cfg.record_link_stats = true;
  cfg.record_lineage = lineage;
  const core::FaultTolerantSorter sorter(3, faults, cfg);
  return sorter.sort(keys);
}

std::vector<sort::Key> recovery_expected() {
  util::Rng rng(1703);
  (void)fault::random_faults(3, 1, rng);
  auto keys = sort::gen_uniform(200, rng);
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Per-dimension conservation against LinkStats: both sides charge at
/// NodeCtx::send from the same router path, so equality is exact.
void expect_conserves_hops(const sim::LineageSnapshot& lin,
                           const sim::LinkStatsSnapshot& links) {
  ASSERT_TRUE(lin.enabled);
  ASSERT_FALSE(links.empty());
  for (cube::Dim d = 0; d < links.dim; ++d)
    EXPECT_EQ(lin.hops_by_dim(d) + lin.untracked[static_cast<std::size_t>(d)],
              links.dim_total(d).key_hops)
        << "dimension " << d;
}

std::string metrics_json_of(const core::SortOutcome& out) {
  std::ostringstream os;
  sim::write_metrics_json(os, out.report);
  return os.str();
}

/// Fixed-name temp files: tests run single-process, no collisions.
std::string write_temp(const char* name, const std::string& text) {
  const std::string path = std::string("lineage_test_") + name + ".json";
  std::ofstream f(path);
  f << text;
  return path;
}

// ---------------------------------------------------------------------------
// Tracker basics: off by default, observation only, deterministic.

TEST(LineageTracker, DisabledByDefaultAndObservationOnly) {
  const core::SortOutcome off = run_fig7(core::Executor::Sequential, false);
  EXPECT_FALSE(off.report.lineage.enabled);
  EXPECT_TRUE(off.report.lineage.empty());
  EXPECT_TRUE(off.report.lineage.keys.empty());

  const core::SortOutcome on = run_fig7(core::Executor::Sequential, true);
  ASSERT_TRUE(on.report.lineage.enabled);
  EXPECT_FALSE(on.report.lineage.empty());
  // Tracking is observation only: every logical outcome — and therefore
  // every golden — is untouched by the flag.
  EXPECT_DOUBLE_EQ(off.report.makespan, on.report.makespan);
  EXPECT_EQ(off.report.comparisons, on.report.comparisons);
  EXPECT_EQ(off.report.messages, on.report.messages);
  EXPECT_EQ(off.report.key_hops, on.report.key_hops);
  EXPECT_TRUE(off.report.metrics == on.report.metrics);
  EXPECT_TRUE(off.report.links == on.report.links);
  EXPECT_EQ(off.sorted, on.sorted);
}

TEST(LineageTracker, ExecutorsProduceIdenticalSnapshots) {
  const core::SortOutcome seq = run_fig7(core::Executor::Sequential, true);
  const core::SortOutcome thr = run_fig7(core::Executor::Threaded, true);
  ASSERT_TRUE(seq.report.lineage.enabled);
  EXPECT_TRUE(seq.report.lineage == thr.report.lineage);
}

TEST(LineageTracker, FaultFreeAuditIsExactAndConservesHops) {
  const core::SortOutcome out = run_fig7(core::Executor::Sequential, true);
  const sim::LineageSnapshot& lin = out.report.lineage;
  ASSERT_TRUE(lin.enabled);
  EXPECT_EQ(lin.dim, 6);

  // Every id accounted: real ids equal the input size, the rest padding.
  EXPECT_EQ(lin.assigned, lin.keys.size());
  EXPECT_EQ(lin.assigned - lin.dummies, 3'200u);

  // Exact no-loss/no-dup audit over the gathered output.
  ASSERT_TRUE(lin.audit.checked);
  EXPECT_TRUE(lin.audit.ok);
  EXPECT_TRUE(lin.audit.lost.empty());
  EXPECT_TRUE(lin.audit.duplicated.empty());
  EXPECT_EQ(lin.audit.salvaged, 0u);
  EXPECT_EQ(lin.resolve_mismatches, 0u);

  // Without recovery traffic every payload word a node sends is a block
  // it holds, so the conservation equation closes with zero untracked.
  EXPECT_EQ(lin.untracked_total(), 0u);
  expect_conserves_hops(lin, out.report.links);
}

// ---------------------------------------------------------------------------
// Pinned digest over a grid of runs: every field of every snapshot (chains,
// hops, witnesses, audit) folded into one FNV-1a hash. The grid spans Q_3–Q_6;
// uniform, three-distinct-value and organ-pipe inputs; key counts that leave
// dummies; plain runs with r = 0–2, full and half exchange, FullSort Step 8
// and host I/O fan-out; recovery runs with 0, 1 and 2 kills; and both
// executors. Any change to the lineage internals must leave it untouched.

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
};

void digest_snapshot(Fnv& f, const sim::LineageSnapshot& s) {
  f.add(s.enabled);
  f.add_signed(s.dim);
  f.add(s.assigned);
  f.add(s.dummies);
  f.add(s.dropped_events);
  f.add(s.resolve_mismatches);
  f.add(s.untracked.size());
  for (const std::uint64_t u : s.untracked) f.add(u);
  f.add(s.keys.size());
  for (const sim::LineageKeyRecord& k : s.keys) {
    f.add_signed(k.value);
    f.add(k.origin);
    f.add(k.holder);
    f.add(k.dummy);
    f.add(k.retired);
    f.add(k.lost);
    f.add(k.salvaged);
    f.add(k.witness);
    f.add_signed(k.witness_step);
    f.add(k.moves);
    f.add(k.hops.size());
    for (const std::uint64_t h : k.hops) f.add(h);
    f.add(k.chain.size());
    for (const sim::LineageEvent& ev : k.chain) {
      f.add(static_cast<std::uint64_t>(ev.kind));
      f.add(static_cast<std::uint64_t>(ev.phase));
      f.add(ev.node);
      f.add(ev.peer);
      f.add_signed(ev.step);
    }
  }
  const sim::LineageAudit& a = s.audit;
  f.add(a.checked);
  f.add(a.ok);
  f.add(a.lost.size());
  for (const auto& l : a.lost) {
    f.add(l.id);
    f.add_signed(l.value);
    f.add(l.last_holder);
    f.add(static_cast<std::uint64_t>(l.phase));
  }
  f.add(a.duplicated.size());
  for (const auto& d : a.duplicated) {
    f.add_signed(d.value);
    f.add(d.extra);
  }
  f.add(a.salvaged);
  f.add(a.witnessed_salvaged);
}

std::vector<sort::Key> grid_input(int shape, std::size_t count,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  switch (shape) {
    case 0: return sort::gen_uniform(count, rng);
    case 1: return sort::gen_few_distinct(count, 3, rng);
    default: return sort::gen_organ_pipe(count);
  }
}

TEST(LineageDigest, GridSnapshotsMatchPinnedDigest) {
  Fnv digest;
  std::size_t runs = 0;
  std::size_t degraded = 0;
  // Coverage of the grid: salvage, untracked words and retired dummies.
  std::uint64_t salvaged = 0, untracked = 0, retired = 0;
  const auto run_both = [&](cube::Dim n, const fault::FaultSet& faults,
                            core::SortConfig cfg,
                            const std::vector<sort::Key>& keys) {
    cfg.record_lineage = true;
    sim::LineageSnapshot first;
    for (const core::Executor exec :
         {core::Executor::Sequential, core::Executor::Threaded}) {
      cfg.executor = exec;
      ++runs;
      try {
        const core::FaultTolerantSorter sorter(n, faults, cfg);
        const core::SortOutcome out = sorter.sort(keys);
        const sim::LineageSnapshot& lin = out.report.lineage;
        digest_snapshot(digest, lin);
        salvaged += lin.audit.salvaged;
        untracked += lin.untracked_total();
        retired += static_cast<std::uint64_t>(
            std::count_if(lin.keys.begin(), lin.keys.end(),
                          [](const auto& k) { return k.retired; }));
        if (exec == core::Executor::Sequential)
          first = out.report.lineage;
        else
          EXPECT_TRUE(first == out.report.lineage)
              << "executors disagree at n=" << n << ", " << keys.size()
              << " keys";
      } catch (const core::DegradationError&) {
        ++degraded;
        digest.add(0xdeadull);
      }
    }
  };

  std::uint64_t seed = 9100;
  for (cube::Dim n = 3; n <= 6; ++n)
    for (int shape = 0; shape < 3; ++shape)
      for (const std::size_t count : {std::size_t{97}, std::size_t{1000}}) {
        const auto keys = grid_input(shape, count, ++seed);
        util::Rng frng(seed * 31);
        const fault::FaultSet f1 = fault::random_faults(n, 1, frng);
        const fault::FaultSet f2 = fault::random_faults(n, 2, frng);

        // Plain runs.
        core::SortConfig plain;
        plain.protocol = sort::ExchangeProtocol::FullExchange;
        run_both(n, fault::FaultSet(n), plain, keys);
        plain.protocol = sort::ExchangeProtocol::HalfExchange;
        plain.charge_host_io = true;
        run_both(n, f1, plain, keys);
        plain.protocol = sort::ExchangeProtocol::FullExchange;
        plain.charge_host_io = false;
        plain.step8 = core::Step8Mode::FullSort;
        run_both(n, f2, plain, keys);

        // Recovery runs, patience tiers scaled to the fault-free makespan.
        core::SortConfig rec;
        rec.online_recovery = true;
        const sim::SimTime t0 =
            core::FaultTolerantSorter(n, fault::FaultSet(n), rec)
                .sort(keys)
                .report.makespan;
        rec.recovery.detect_patience = 1.0 * t0;
        rec.recovery.collect_patience = 2.5 * t0;
        rec.recovery.verdict_patience = 50.0 * t0;
        run_both(n, f1, rec, keys);
        const cube::NodeId last = cube::num_nodes(n) - 1;
        rec.injector.kill_node_at(last, 0.4 * t0);
        run_both(n, fault::FaultSet(n), rec, keys);
        rec.injector.kill_node_at(cube::num_nodes(n) / 2 + 1, 0.7 * t0);
        run_both(n, fault::FaultSet(n), rec, keys);
      }
  EXPECT_EQ(runs, 288u);
  EXPECT_LT(degraded, runs / 4);
  EXPECT_GT(salvaged, 0u);
  EXPECT_GT(untracked, 0u);
  EXPECT_GT(retired, 0u);
  std::ostringstream hex;
  hex << std::hex << digest.h;
  EXPECT_EQ(hex.str(), "71dd6b26e5555849") << runs << " runs, " << degraded << " degraded";
}

// ---------------------------------------------------------------------------
// Pinned digest over every observable output of the sort drivers: the
// sorted keys, every deterministic RunReport field, every trace event, the
// metrics, links, timeline and lineage snapshots, the phase breakdown, and
// the text of each DegradationError. The grid is LineageDigest's, plus the
// single-fault subcube sort, the MFS baseline, forced coalescing under
// cut-through routing and a dead-link plan. A refactor of the plain or the
// recovery driver must leave it untouched.

void fold_double(Fnv& f, double v) { f.add(std::bit_cast<std::uint64_t>(v)); }

void fold_text(Fnv& f, const std::string& s) {
  f.add(s.size());
  for (const char c : s) f.add(static_cast<unsigned char>(c));
}

void fold_counters(Fnv& f, const sim::PhaseCounters& c) {
  for (const std::uint64_t v :
       {c.messages, c.keys_sent, c.key_hops, c.comparisons, c.recvs,
        c.keys_received, c.messages_dropped, c.timeouts, c.pool_checkouts})
    f.add(v);
  fold_double(f, c.send_busy);
  fold_double(f, c.compute_time);
  fold_double(f, c.recv_wait);
  for (const std::uint32_t b : c.msg_size_hist) f.add(b);
}

void fold_link_cell(Fnv& f, const sim::LinkCell& c) {
  f.add(c.traversals);
  f.add(c.key_hops);
  for (const std::uint64_t v : c.phase_traversals) f.add(v);
  for (const std::uint64_t v : c.phase_key_hops) f.add(v);
}

template <class Row>
void fold_rows(Fnv& f, const std::vector<Row>& rows) {
  f.add(rows.size());
  for (const Row& row : rows) {
    f.add(row.size());
    for (const auto v : row) f.add(static_cast<std::uint64_t>(v));
  }
}

/// Trace events in a canonical order: the threaded executor's global
/// record order varies run to run, the multiset of events does not.
std::vector<sim::TraceEvent> canonical(std::vector<sim::TraceEvent> evs) {
  const auto key = [](const sim::TraceEvent& e) {
    return std::tuple(e.node, e.time, e.kind, e.peer, e.tag, e.keys, e.hops,
                      e.phase);
  };
  std::sort(evs.begin(), evs.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  return evs;
}

/// Folds one run. `sequential` also folds what only the sequential
/// executor fixes: the trace's record order and the pool ledgers.
void fold_report(Fnv& f, const sim::RunReport& r,
                 const std::vector<sim::TraceEvent>& trace, bool sequential) {
  fold_double(f, r.cost.t_compare);
  fold_double(f, r.cost.t_transfer);
  fold_double(f, r.cost.t_startup);
  fold_text(f, r.cost.mode_name());
  fold_double(f, r.makespan);
  for (const std::uint64_t v : {r.messages, r.keys_sent, r.key_hops,
                                r.comparisons, r.messages_dropped,
                                r.timeouts, r.trace_dropped})
    f.add(v);
  f.add(r.node_clocks.size());
  for (const double c : r.node_clocks) fold_double(f, c);
  f.add(r.killed_nodes.size());
  for (const cube::NodeId u : r.killed_nodes) f.add(u);
  // The whole pool ledger, heap allocations included: no kernel backend
  // swaps storage into a received payload, so it is backend-independent.
  if (sequential)
    for (const sim::PoolStats& p : {r.pool, r.pool_delta}) {
      f.add(p.checkouts);
      f.add(p.fresh);
      f.add(p.grows);
      f.add(p.returns);
    }

  f.add(r.metrics.nodes.size());
  for (const sim::NodePhaseCounters& row : r.metrics.nodes)
    for (const sim::PhaseCounters& c : row) fold_counters(f, c);
  f.add_signed(r.links.dim);
  f.add(r.links.num_nodes);
  f.add(r.links.cells.size());
  for (const sim::LinkCell& c : r.links.cells) fold_link_cell(f, c);
  fold_rows(f, r.links.reindex_extra);
  fold_rows(f, r.links.reindex_fault_extra);
  const sim::ReindexAudit& a = r.reindex_audit;
  f.add(a.enabled);
  f.add(a.candidates.size());
  for (const auto& c : a.candidates) {
    fold_rows(f, std::vector<std::vector<cube::Dim>>{c.cuts});
    fold_rows(f, std::vector<std::vector<int>>{c.predicted_h});
    f.add_signed(c.predicted_total);
    f.add(c.chosen);
  }
  fold_rows(f, std::vector<std::vector<int>>{a.measured_h, a.measured_all_h});
  f.add_signed(a.measured_total);
  f.add_signed(a.measured_all_total);
  f.add(r.phases.slices.size());
  for (const sim::PhaseBreakdown::Slice& s : r.phases.slices) {
    f.add(static_cast<std::uint64_t>(s.phase));
    fold_counters(f, s.counters);
    fold_double(f, s.critical_time);
    fold_double(f, s.critical_comm);
    fold_double(f, s.critical_compute);
  }
  f.add(r.phases.has_critical_path);
  fold_double(f, r.phases.critical_total);
  fold_text(f, r.diagnosis.to_string());
  f.add(r.diagnosis.waits.size());
  for (const sim::Diagnosis::Wait& w : r.diagnosis.waits) {
    f.add(w.node);
    f.add(w.src);
    f.add(w.tag);
    fold_double(f, w.time);
    f.add(static_cast<std::uint64_t>(w.phase));
    f.add(w.expired);
  }
  const sim::RecoveryLatency& rl = r.recovery_latency;
  f.add(rl.enabled);
  f.add(rl.episodes.size());
  for (const sim::RecoveryEpisode& ep : rl.episodes) {
    f.add(ep.attempt);
    f.add(ep.dead.size());
    for (const cube::NodeId d : ep.dead) f.add(d);
    for (const double t : {ep.inject, ep.detect_first, ep.detect_confirm,
                           ep.rollcall_end, ep.salvage_end, ep.restart_end})
      fold_double(f, t);
  }
  const sim::TimelineSnapshot& t = r.timeline;
  f.add(t.enabled);
  fold_double(f, t.tick);
  f.add(t.num_nodes);
  f.add_signed(t.dim);
  f.add(t.ticks);
  f.add(t.dropped);
  fold_rows(f, t.queue_depth);
  fold_rows(f, t.pool_in_use);
  fold_rows(f, t.keys_in_flight);
  fold_rows(f, t.phase);
  digest_snapshot(f, r.lineage);
  f.add(r.host.enabled);
  f.add(r.watchdog.enabled);

  f.add(trace.size());
  for (const sim::TraceEvent& e : sequential ? trace : canonical(trace)) {
    fold_double(f, e.time);
    f.add(e.node);
    f.add(static_cast<std::uint64_t>(e.kind));
    f.add(e.peer);
    f.add(e.tag);
    f.add(e.keys);
    f.add_signed(e.hops);
    f.add(static_cast<std::uint64_t>(e.phase));
  }
}

void fold_keys(Fnv& f, const std::vector<sort::Key>& keys) {
  f.add(keys.size());
  for (const sort::Key k : keys) f.add_signed(k);
}

TEST(DriverDigest, GridRunsMatchPinnedDigest) {
  Fnv digest;
  std::size_t runs = 0;
  std::size_t degraded = 0;
  const auto run_both = [&](const std::function<core::SortOutcome(
                                core::SortConfig)>& sort,
                            core::SortConfig cfg) {
    cfg.record_trace = true;
    cfg.record_metrics = true;
    cfg.record_link_stats = true;
    cfg.record_timeline = true;
    cfg.timeline_tick = 250.0;
    cfg.record_lineage = true;
    for (const core::Executor exec :
         {core::Executor::Sequential, core::Executor::Threaded}) {
      cfg.executor = exec;
      ++runs;
      try {
        const core::SortOutcome out = sort(cfg);
        fold_keys(digest, out.sorted);
        digest.add(out.block_size);
        fold_report(digest, out.report, out.trace_events,
                    exec == core::Executor::Sequential);
      } catch (const core::DegradationError& e) {
        ++degraded;
        fold_text(digest, e.what());
      }
    }
  };

  std::uint64_t seed = 9100;
  for (cube::Dim n = 3; n <= 6; ++n)
    for (int shape = 0; shape < 3; ++shape)
      for (const std::size_t count : {std::size_t{97}, std::size_t{1000}}) {
        const auto keys = grid_input(shape, count, ++seed);
        util::Rng frng(seed * 31);
        const fault::FaultSet f1 = fault::random_faults(n, 1, frng);
        const fault::FaultSet f2 = fault::random_faults(n, 2, frng);
        const auto sorter = [&](const fault::FaultSet& faults) {
          return [&, faults](core::SortConfig cfg) {
            return core::FaultTolerantSorter(n, faults, cfg).sort(keys);
          };
        };

        // Plain runs.
        core::SortConfig plain;
        plain.protocol = sort::ExchangeProtocol::FullExchange;
        run_both(sorter(fault::FaultSet(n)), plain);
        plain.protocol = sort::ExchangeProtocol::HalfExchange;
        plain.charge_host_io = true;
        run_both(sorter(f1), plain);
        plain.protocol = sort::ExchangeProtocol::FullExchange;
        plain.charge_host_io = false;
        plain.step8 = core::Step8Mode::FullSort;
        run_both(sorter(f2), plain);

        // Forced coalescing under cut-through routing.
        core::SortConfig coalesced;
        coalesced.cost = sim::CostModel::wormhole();
        coalesced.coalesce = sort::CoalescePolicy::On;
        run_both(sorter(f2), coalesced);

        // A dead link between two healthy nodes, reduced to a logical
        // processor fault by the plan.
        cube::NodeId lo = 0;
        while (cube::bit(lo, 1) != 0 || f1.is_faulty(lo) ||
               f1.is_faulty(lo | 2u))
          ++lo;
        const cube::LinkSet dead(n, {cube::Link{lo, 1}});
        run_both(
            [&](core::SortConfig cfg) {
              return core::FaultTolerantSorter(n, f1, dead, cfg).sort(keys);
            },
            core::SortConfig{});

        // Recovery runs, patience tiers scaled to the fault-free makespan.
        core::SortConfig rec;
        rec.online_recovery = true;
        const sim::SimTime t0 =
            core::FaultTolerantSorter(n, fault::FaultSet(n), rec)
                .sort(keys)
                .report.makespan;
        rec.recovery.detect_patience = 1.0 * t0;
        rec.recovery.collect_patience = 2.5 * t0;
        rec.recovery.verdict_patience = 50.0 * t0;
        run_both(sorter(f1), rec);
        const cube::NodeId last = cube::num_nodes(n) - 1;
        rec.injector.kill_node_at(last, 0.4 * t0);
        run_both(sorter(fault::FaultSet(n)), rec);
        rec.injector.kill_node_at(cube::num_nodes(n) / 2 + 1, 0.7 * t0);
        run_both(sorter(fault::FaultSet(n)), rec);

        // The single-fault subcube sort and the MFS baseline (sequential
        // executor only, no instruments).
        for (const auto protocol : {sort::ExchangeProtocol::HalfExchange,
                                    sort::ExchangeProtocol::FullExchange}) {
          const sort::SingleFaultSortResult sf = sort::single_fault_bitonic_sort(
              n, f1, keys, fault::FaultModel::Partial,
              sim::CostModel::ncube7(), protocol);
          fold_keys(digest, sf.sorted);
          digest.add(sf.block_size);
          fold_report(digest, sf.report, {}, true);
          const baseline::MfsSortResult mfs = baseline::mfs_bitonic_sort(
              n, f2, keys, fault::FaultModel::Partial,
              sim::CostModel::ncube7(), protocol);
          fold_keys(digest, mfs.sorted);
          digest.add(mfs.block_size);
          fold_report(digest, mfs.report, {}, true);
          runs += 2;
        }
      }
  EXPECT_EQ(runs, 480u);
  EXPECT_GT(degraded, 0u);
  EXPECT_LT(degraded, runs / 4);
  std::ostringstream hex;
  hex << std::hex << digest.h;
  EXPECT_EQ(hex.str(), "d7585f7211ada2d6") << runs << " runs, " << degraded << " degraded";
}

// ---------------------------------------------------------------------------
// Recovery: salvage custody, witnesses, and the audit across a death.

TEST(LineageRecovery, AuditSurvivesAKillAndSalvagesThroughWitnesses) {
  const core::SortOutcome out = run_recovery(core::Executor::Sequential);
  ASSERT_EQ(out.sorted, recovery_expected());
  const sim::LineageSnapshot& lin = out.report.lineage;
  ASSERT_TRUE(lin.enabled);
  ASSERT_TRUE(lin.audit.checked);
  EXPECT_TRUE(lin.audit.ok) << lin.audit.lost.size() << " lost, "
                            << lin.audit.duplicated.size() << " duplicated";

  // Node 6 died holding keys: they must have been salvaged, and every
  // salvaged custody chain must pass through a recorded witness.
  EXPECT_GT(lin.audit.salvaged, 0u);
  EXPECT_EQ(lin.audit.witnessed_salvaged, lin.audit.salvaged);
  for (const sim::LineageKeyRecord& k : lin.keys) {
    if (!k.salvaged) continue;
    const auto it = std::find_if(k.chain.begin(), k.chain.end(),
                                 [](const sim::LineageEvent& ev) {
                                   return ev.kind ==
                                          sim::LineageEventKind::Salvage;
                                 });
    ASSERT_NE(it, k.chain.end());
    EXPECT_NE(it->peer, sim::kLineageNoWitness);
  }

  // Conservation still closes exactly; recovery's control/witness/fan-out
  // words are the untracked remainder.
  expect_conserves_hops(lin, out.report.links);
}

TEST(LineageRecovery, ExecutorsProduceIdenticalSnapshots) {
  const core::SortOutcome seq = run_recovery(core::Executor::Sequential);
  const core::SortOutcome thr = run_recovery(core::Executor::Threaded);
  ASSERT_TRUE(seq.report.lineage.enabled);
  EXPECT_TRUE(seq.report.lineage == thr.report.lineage);
}

// ---------------------------------------------------------------------------
// The audit as a detector: rerunning it against a tampered output names
// the violated ids, and the campaign classification turns that into
// RunOutcome::Corrupt.

TEST(LineageAudit, TamperedOutputNamesLostAndDuplicatedIds) {
  core::SortOutcome out = run_recovery(core::Executor::Sequential);
  ASSERT_TRUE(out.report.lineage.audit.ok);

  // Lose the smallest key, duplicate the largest: exactly the corruption
  // a value-level multiset comparison can localize but not attribute.
  std::vector<sort::Key> tampered = out.sorted;
  const sort::Key lost_value = tampered.front();
  const sort::Key dup_value = tampered.back();
  tampered.erase(tampered.begin());
  tampered.push_back(dup_value);

  sim::audit_lineage(out.report.lineage, tampered);
  const sim::LineageAudit& audit = out.report.lineage.audit;
  ASSERT_TRUE(audit.checked);
  EXPECT_FALSE(audit.ok);
  ASSERT_EQ(audit.lost.size(), 1u);
  EXPECT_EQ(audit.lost[0].value, lost_value);
  // The named id really is an id of that value.
  ASSERT_LT(audit.lost[0].id, out.report.lineage.keys.size());
  EXPECT_EQ(out.report.lineage.keys[audit.lost[0].id].value, lost_value);
  ASSERT_EQ(audit.duplicated.size(), 1u);
  EXPECT_EQ(audit.duplicated[0].value, dup_value);
  EXPECT_EQ(audit.duplicated[0].extra, 1u);
}

TEST(LineageCorruptClassification, AuditFailureClassifiesCorrupt) {
  for (const core::Executor exec :
       {core::Executor::Sequential, core::Executor::Threaded}) {
    core::SortOutcome out = run_recovery(exec);
    ASSERT_EQ(out.sorted, recovery_expected());
    // The value-level check passed and the audit passed: recovered.
    EXPECT_EQ(core::classify_completed(out.report, true),
              core::RunOutcome::CompletedRecovered);

    // A failed custody audit vetoes completion exactly like a failed
    // value comparison — the campaign runner ANDs the two verdicts.
    std::vector<sort::Key> tampered = out.sorted;
    tampered.front() = tampered.back();
    sim::audit_lineage(out.report.lineage, tampered);
    const bool sorted_ok =
        tampered == recovery_expected() && out.report.lineage.audit.ok;
    EXPECT_FALSE(sorted_ok);
    EXPECT_EQ(core::classify_completed(out.report, sorted_ok),
              core::RunOutcome::Corrupt);
  }
}

// ---------------------------------------------------------------------------
// Metrics JSON surface: schema v6 block when on, enabled:false stub off.

TEST(LineageMetricsJson, BlockCarriesAuditTrailsAndStubWhenOff) {
  const core::SortOutcome on = run_recovery(core::Executor::Sequential);
  const std::string json = metrics_json_of(on);
  EXPECT_NE(json.find("\"schema_version\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"lineage\": {"), std::string::npos);
  EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"audit\": {"), std::string::npos);
  EXPECT_NE(json.find("\"top_travelers\": ["), std::string::npos);
  EXPECT_NE(json.find("\"trail\": \"A,"), std::string::npos);

  const core::SortOutcome off =
      run_recovery(core::Executor::Sequential, false);
  const std::string stub = metrics_json_of(off);
  EXPECT_NE(stub.find("\"lineage\": {"), std::string::npos);
  EXPECT_NE(stub.find("\"enabled\": false"), std::string::npos);
  EXPECT_EQ(stub.find("\"top_travelers\""), std::string::npos);
}

TEST(LineageMetricsJson, ChromeTraceCarriesLineageSummary) {
  const core::SortOutcome out = run_recovery(core::Executor::Sequential);
  std::ostringstream os;
  sim::ChromeTraceOptions topts;
  topts.lineage = &out.report.lineage;
  sim::write_chrome_trace(os, out.trace_events, 8, topts);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("lineage_summary"), std::string::npos);
  EXPECT_NE(trace.find("\"audit_ok\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// ftdiag lineage: the 0/1/2 exit contract, and naming corrupted ids.

TEST(LineageFtdiagCli, CleanReportExitsZeroInEveryMode) {
  const core::SortOutcome out = run_recovery(core::Executor::Sequential);
  const std::string path = write_temp("clean", metrics_json_of(out));
  std::ostringstream cli_out;
  std::ostringstream cli_err;

  const char* summary[] = {"ftdiag", "lineage", path.c_str()};
  EXPECT_EQ(tools::run_cli(3, summary, cli_out, cli_err), 0);
  EXPECT_NE(cli_out.str().find("audit: OK"), std::string::npos)
      << cli_out.str();

  const char* audit[] = {"ftdiag", "lineage", path.c_str(), "--audit"};
  EXPECT_EQ(tools::run_cli(4, audit, cli_out, cli_err), 0);

  const char* key[] = {"ftdiag", "lineage", path.c_str(), "--key", "0"};
  cli_out.str({});
  EXPECT_EQ(tools::run_cli(5, key, cli_out, cli_err), 0);
  EXPECT_NE(cli_out.str().find("custody trail"), std::string::npos)
      << cli_out.str();

  const char* top[] = {"ftdiag", "lineage", path.c_str(), "--top", "3"};
  cli_out.str({});
  EXPECT_EQ(tools::run_cli(5, top, cli_out, cli_err), 0);
  EXPECT_NE(cli_out.str().find("top 3 traveler"), std::string::npos)
      << cli_out.str();
}

TEST(LineageFtdiagCli, ViolatedAuditExitsOneAndNamesIds) {
  core::SortOutcome out = run_recovery(core::Executor::Sequential);
  std::vector<sort::Key> tampered = out.sorted;
  const sort::Key lost_value = tampered.front();
  tampered.erase(tampered.begin());
  tampered.push_back(tampered.back());
  sim::audit_lineage(out.report.lineage, tampered);
  ASSERT_FALSE(out.report.lineage.audit.ok);
  const std::uint64_t lost_id = out.report.lineage.audit.lost[0].id;

  const std::string path = write_temp("corrupt", metrics_json_of(out));
  std::ostringstream cli_out;
  std::ostringstream cli_err;
  const char* args[] = {"ftdiag", "lineage", path.c_str()};
  EXPECT_EQ(tools::run_cli(3, args, cli_out, cli_err), 1);
  const std::string text = cli_out.str();
  EXPECT_NE(text.find("VIOLATED"), std::string::npos) << text;
  EXPECT_NE(text.find("LOST id " + std::to_string(lost_id)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("DUPLICATED value"), std::string::npos) << text;
  (void)lost_value;
}

TEST(LineageFtdiagCli, UsageAndParseErrorsExitTwo) {
  std::ostringstream cli_out;
  std::ostringstream cli_err;

  const char* missing[] = {"ftdiag", "lineage", "lineage_no_such.json"};
  EXPECT_EQ(tools::run_cli(3, missing, cli_out, cli_err), 2);

  const char* no_file[] = {"ftdiag", "lineage"};
  EXPECT_EQ(tools::run_cli(2, no_file, cli_out, cli_err), 2);

  // A run with lineage off exports the stub: a parse-level refusal.
  const core::SortOutcome off =
      run_recovery(core::Executor::Sequential, false);
  const std::string stub = write_temp("stub", metrics_json_of(off));
  const char* off_args[] = {"ftdiag", "lineage", stub.c_str()};
  EXPECT_EQ(tools::run_cli(3, off_args, cli_out, cli_err), 2);
  EXPECT_NE(cli_err.str().find("record_lineage off"), std::string::npos)
      << cli_err.str();

  // Unknown id in the per-key detail.
  const core::SortOutcome on = run_recovery(core::Executor::Sequential);
  const std::string path = write_temp("clean2", metrics_json_of(on));
  const char* bad_key[] = {"ftdiag", "lineage", path.c_str(), "--key",
                           "999999"};
  EXPECT_EQ(tools::run_cli(5, bad_key, cli_out, cli_err), 2);

  // The modes are exclusive.
  const char* both[] = {"ftdiag", "lineage", path.c_str(), "--audit",
                        "--top", "3"};
  EXPECT_EQ(tools::run_cli(6, both, cli_out, cli_err), 2);
}

TEST(LineageFtdiagCli, VersionPrintsSchemaTable) {
  std::ostringstream cli_out;
  std::ostringstream cli_err;
  const char* args[] = {"ftdiag", "--version"};
  EXPECT_EQ(tools::run_cli(2, args, cli_out, cli_err), 0);
  const std::string text = cli_out.str();
  EXPECT_NE(text.find("metrics JSON: up to v7"), std::string::npos) << text;
  EXPECT_NE(text.find("bench JSON: up to v3"), std::string::npos) << text;
  EXPECT_NE(text.find("campaign JSON: exactly v7"), std::string::npos)
      << text;
  EXPECT_NE(text.find("watchdog JSON: up to v1"), std::string::npos) << text;
}

}  // namespace
}  // namespace ftsort
