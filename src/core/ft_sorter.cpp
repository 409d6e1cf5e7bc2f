#include "core/ft_sorter.hpp"

#include <algorithm>

#include "sort/distribution.hpp"
#include "sort/schedule.hpp"
#include "sort/sequential.hpp"
#include "util/contracts.hpp"

namespace ftsort::core {

namespace {

/// §3 heuristic audit: pair every Ψ candidate's predicted overhead profile
/// (retained by partition::select_sequence) with the run's measured
/// re-index extra hops (sim/link_stats.hpp audit table).
sim::ReindexAudit build_reindex_audit(const partition::Plan& plan,
                                      const sim::LinkStatsSnapshot& links) {
  sim::ReindexAudit audit;
  audit.enabled = true;
  const partition::Selection& sel = plan.selection();
  const auto& psi = plan.search().cutting_set;
  FTSORT_INVARIANT(psi.size() == sel.candidates.size());
  for (std::size_t idx = 0; idx < psi.size(); ++idx) {
    sim::ReindexAudit::Candidate c;
    c.cuts = psi[idx];
    c.predicted_h = sel.candidates[idx].h;
    c.predicted_total = sel.candidates[idx].total;
    c.chosen = idx == sel.beta;
    audit.candidates.push_back(std::move(c));
  }
  audit.measured_h =
      sim::measured_reindex_by_dim(links.reindex_fault_extra, plan.m());
  for (const int h : audit.measured_h) audit.measured_total += h;
  audit.measured_all_h =
      sim::measured_reindex_by_dim(links.reindex_extra, plan.m());
  for (const int h : audit.measured_all_h) audit.measured_all_total += h;
  return audit;
}

}  // namespace

FaultTolerantSorter::FaultTolerantSorter(cube::Dim n,
                                         fault::FaultSet faults,
                                         SortConfig config)
    : config_(config), plan_(partition::Plan::build(faults)),
      machine_faults_(plan_.faults()) {
  FTSORT_REQUIRE(faults.dim() == n);
  FTSORT_REQUIRE(plan_.live_count() > 0);
}

FaultTolerantSorter::FaultTolerantSorter(cube::Dim n,
                                         fault::FaultSet faults,
                                         cube::LinkSet dead_links,
                                         SortConfig config)
    : config_(config),
      plan_(partition::Plan::build(
          fault::effective_node_faults(faults, dead_links))),
      machine_faults_(std::move(faults)), dead_links_(std::move(dead_links)) {
  FTSORT_REQUIRE(machine_faults_.dim() == n);
  FTSORT_REQUIRE(plan_.live_count() > 0);
  FTSORT_REQUIRE(
      fault::healthy_subgraph_connected(machine_faults_, dead_links_));
}

FaultTolerantSorter::FaultTolerantSorter(partition::Plan plan,
                                         SortConfig config)
    : config_(config), plan_(std::move(plan)),
      machine_faults_(plan_.faults()) {
  FTSORT_REQUIRE(plan_.live_count() > 0);
}

SortOutcome FaultTolerantSorter::sort(
    std::span<const sort::Key> keys) const {
  if (config_.online_recovery) {
    // Recovery renegotiates processor faults only; a plan reduced from
    // dead links would let it schedule exchanges across dead wires.
    FTSORT_REQUIRE(dead_links_.empty());
    return recovery_sort(plan_, config_, keys);
  }
  const partition::Plan& plan = plan_;
  const cube::Dim n = plan.n();
  const std::vector<cube::NodeId> slots = sort::slot_order(plan);

  // Step 2: scatter in slot order.
  sort::Distribution dist = sort::distribute_evenly(keys, plan.live_count());
  std::vector<std::vector<sort::Key>> block_of = sort::scatter_to_slots(
      std::move(dist.blocks), slots, cube::num_nodes(n));

  // Host entry node (host I/O only): the lowest live machine address.
  const cube::NodeId entry = *std::min_element(slots.begin(), slots.end());
  // Host I/O tags sit past everything the sort itself uses.
  const std::uint32_t tag_host = sort::schedule_tag_span(plan.s(), plan.m());

  const auto protocol = sort::resolve_protocol(config_.protocol,
                                               config_.coalesce, config_.cost);
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task<void> {
    if (!plan.role_of(ctx.id()).live) co_return;  // dangling: idles
    std::vector<sort::Key>& block = block_of[ctx.id()];

    // Step 2 (optional): the host pushes every key through the entry
    // node's host link; the entry fans the blocks out.
    if (config_.charge_host_io) {
      const sim::PhaseSpan span = ctx.span(sim::Phase::Scatter);
      if (ctx.id() == entry) {
        ctx.charge_time(config_.cost.injection_time(keys.size()));
        for (cube::NodeId u = 0; u < cube::num_nodes(plan.n()); ++u) {
          if (u == entry || !plan.role_of(u).live) continue;
          ctx.send(u, tag_host, block_of[u]);
        }
      } else {
        sim::Message msg = co_await ctx.recv(entry, tag_host);
        msg.payload.release_into(block);
      }
    }

    // Step 3: local sort (heapsort per the paper, configurable); then the
    // schedule: Step 3's subcube sort and Steps 4-8.
    {
      const sim::PhaseSpan span = ctx.span(sim::Phase::LocalSort);
      std::uint64_t comparisons = 0;
      sort::local_sort(config_.local_sort, block, comparisons);
      ctx.charge_compares(comparisons);
    }
    // Exchange working storage, reused across every merge-split this node
    // performs; after warm-up the whole sort's hot path is allocation-free.
    sort::ExchangeScratch scratch;
    const sort::Schedule schedule =
        sort::node_schedule(plan, config_.step8, ctx.id());
    co_await sort::run_schedule(ctx, schedule, block, protocol, scratch);

    // Final gather (optional): blocks stream back to the host through the
    // entry node in output order.
    if (config_.charge_host_io) {
      const sim::PhaseSpan span = ctx.span(sim::Phase::Gather);
      if (ctx.id() == entry) {
        for (const cube::NodeId u : slots) {
          if (u == entry) continue;
          sim::Message msg = co_await ctx.recv(u, tag_host + 1);
          msg.payload.release_into(block_of[u]);
        }
        ctx.charge_time(config_.cost.injection_time(keys.size()));
      } else {
        ctx.send(entry, tag_host + 1, block);
      }
    }
    co_return;
  };

  sim::Machine machine(n, machine_faults_, config_.model, config_.cost,
                       dead_links_);
  arm_instruments(machine, config_, slots, block_of);

  SortOutcome outcome;
  outcome.report = config_.executor == Executor::Threaded
                       ? machine.run_threaded(program)
                       : machine.run(program);
  outcome.block_size = dist.block_size;
  if (config_.record_trace) outcome.trace_events = machine.trace().snapshot();
  if (config_.record_link_stats)
    outcome.report.reindex_audit = build_reindex_audit(plan,
                                                       outcome.report.links);

  // Gather in slot order (the algorithm's output placement).
  outcome.sorted = sort::gather_from_slots(slots, block_of);
  if (config_.record_lineage)
    sim::audit_lineage(outcome.report.lineage, outcome.sorted);
  return outcome;
}

void arm_instruments(sim::Machine& machine, const SortConfig& config,
                     std::span<const cube::NodeId> slots,
                     const std::vector<std::vector<sort::Key>>& block_of) {
  machine.set_injector(config.injector);
  machine.trace().enable(config.record_trace);
  machine.trace().set_capacity(config.trace_capacity);
  machine.profile_host(config.profile_host);
  machine.set_watchdog(config.watchdog);
  if (config.record_metrics) machine.metrics().enable(machine.size());
  if (config.record_link_stats)
    machine.link_stats().enable(machine.size(), machine.dim());
  if (config.record_timeline)
    machine.timeline().enable(machine.size(), machine.dim(),
                              config.timeline_tick);
  if (config.record_lineage) {
    // Ids in slot order, so the id universe is identical across executors
    // and drivers.
    machine.lineage().enable(machine.size(), machine.dim());
    for (const cube::NodeId u : slots)
      machine.lineage().assign_block(u, block_of[u]);
  }
}

}  // namespace ftsort::core
