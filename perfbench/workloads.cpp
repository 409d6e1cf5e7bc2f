// The three benchmark workloads and their per-layer probes.
//
// Every op is a closed loop with one client: the next op starts when the
// previous one returned. End-to-end metrics come from the untraced loop;
// the traced run (--trace 1) adds spans around every layer call and the
// per-layer probes below.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "bench.hpp"
#include "campaign/runner.hpp"
#include "core/ft_sorter.hpp"
#include "core/recovery.hpp"
#include "partition/plan.hpp"
#include "sort/distribution.hpp"
#include "sort/merge_split.hpp"
#include "sort/sequential.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace ftsort;
using core::FaultTolerantSorter;
using core::SortConfig;

enum class Mode { Plain, Recovery, Campaign };

/// One sort shape. `fault_sets` fault sets, `inputs` key vectors and
/// `kills` kill schedules are pre-generated; op i sorts input i % inputs
/// on fault set i % fault_sets with kill i % kills, so one cycle of
/// lcm(...) ops covers every pairing once.
struct Shape {
  const char* name;
  Mode mode;
  cube::Dim n;
  std::size_t faults;  ///< static processor faults per fault set
  cube::Dim m;         ///< required plan dimension m (fixes N')
  std::size_t keys;
  std::size_t fault_sets;
  std::size_t inputs;
  std::size_t kills;   ///< 0: plain sort without injector
};

// A fourth shape, Q_8 with 4 faults and 16,384 keys (sim-dominated, ~18 ms
// per op), was dropped: a shared host's memory-bound slow periods moved even
// its 10th-percentile op time by 40% between runs (README.md).
constexpr std::array<Shape, 3> kShapes{{
    {"plain_q6_r2_256k", Mode::Plain, 6, 2, 1, 262144, 4, 4, 0},
    {"recovery_q6_kill1_128k", Mode::Recovery, 6, 0, 0, 131072, 1, 4, 32},
    {"campaign_q6_r3_1k", Mode::Campaign, 6, 0, 0, 1024, 0, 0, 0},
}};

/// The unit of work a campaign worker repeats: a recovery-mode sort of one
/// trial's keys on a fault-free Q_6 with one seeded kill. The campaign
/// workload's sort, sim, core and partition metrics are measured on it.
constexpr Shape kTrialShape{"campaign_trial", Mode::Recovery, 6, 0, 0, 1024,
                            1, 4, 8};

constexpr cube::Dim kCampaignDim = 6;
constexpr std::size_t kCampaignRMax = 3;
constexpr std::uint32_t kCampaignScenarios = 25;
/// Campaign seeds one run cycles through (op i sweeps universe i % 15). One
/// 25-scenario universe varies by ~15% in outcome mix from seed to seed;
/// fifteen of them average that down to a few percent.
constexpr std::size_t kCampaignUniverses = 15;
/// Scenarios of the reduced sweep that measures the campaign layer on the
/// three sort workloads.
constexpr std::uint32_t kProbeScenarios = 5;

/// Hard wall limit of one invocation's timed loops; a run must end within
/// 180 s, and set-up and probes need the rest.
constexpr double kLoopCapMs = 90'000.0;

std::uint64_t stream_seed(std::uint64_t seed, const std::string& name,
                          std::uint64_t stream) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a of the name
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  util::SplitMix64 sm(seed ^ h ^ (stream * 0x9e3779b97f4a7c15ull));
  return sm.next();
}

std::string join_nodes(const std::vector<cube::NodeId>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i ? "," : "") + std::to_string(v[i]);
  return s + "]";
}

unsigned campaign_workers() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

// ---------------------------------------------------------------------------
// Sort workloads (plain and recovery).

struct Kill {
  cube::NodeId victim = 0;
  sim::SimTime when = 0.0;
};

/// Deterministic per-op counters, read from the RunReport.
struct OpCounters {
  bool complete = false;
  double makespan = 0.0;
  double messages = 0, keys_sent = 0, key_hops = 0, comparisons = 0;
  double timeouts = 0, dropped = 0, pool_checkouts = 0, pool_heap = 0;
  std::size_t attempts = 1;
  bool recovered = false;  ///< committed after at least one restart
  double detect = 0, rollcall = 0, salvage = 0, restart = 0;
};

struct OpRun {
  double wall_ms = 0.0;
  bool failed = false;  ///< wrong output or unexpected exception
  std::uint64_t allocations = 0;
  OpCounters counters;
  sim::RunReport report;  ///< kept only when requested
};

class SortBench {
 public:
  /// Set-up: draw fault sets, build their plans, generate inputs and sorted
  /// references, calibrate the recovery tiers, build the sorters and run
  /// one warm-up op.
  SortBench(const Shape& shape, std::uint64_t seed, Tracer& tracer);

  const Shape& shape() const { return shape_; }
  /// The plan op i sorts on.
  const partition::Plan& plan(std::size_t i) const {
    return plans_[i % sorters_.size() % plans_.size()];
  }
  std::size_t cycle() const { return cycle_; }
  /// The workload's op i (its sorter, input and kill).
  OpRun run(std::size_t i, bool keep_report = false) const {
    return run_with(sorters_[i % sorters_.size()], i % inputs_.size(),
                    keep_report);
  }
  /// Op i's plan and input under a different configuration.
  OpRun run_config(std::size_t i, const SortConfig& cfg,
                   bool keep_report = false) const {
    return run_with(FaultTolerantSorter(plan(i), cfg), i % inputs_.size(),
                    keep_report);
  }
  /// The configuration op i runs with.
  SortConfig config(std::size_t i) const {
    return sorters_[i % sorters_.size()].config();
  }
  /// Recovery-mode configuration without a kill.
  SortConfig recovery_config() const;
  /// Replace the kill cycle (plain workloads' recovery probe). `count`
  /// must be a multiple of the number of fault sets.
  void arm_kills(std::size_t count, std::uint64_t seed);

  const std::vector<Key>& input(std::size_t i) const {
    return inputs_[i % inputs_.size()];
  }

  void describe(std::map<std::string, std::string>& prov) const;

 private:
  OpRun run_with(const FaultTolerantSorter& sorter, std::size_t input,
                 bool keep_report) const;

  Shape shape_;
  std::vector<partition::Plan> plans_;
  std::vector<std::vector<Key>> inputs_;
  std::vector<std::vector<Key>> references_;
  std::vector<Kill> kills_;  ///< kill j goes with sorter j
  sim::SimTime envelope_ = 0.0;
  core::RecoveryConfig tiers_;
  std::vector<FaultTolerantSorter> sorters_;
  std::size_t cycle_ = 1;
  Tracer& tracer_;
};

std::vector<partition::Plan> draw_plans(const Shape& shape,
                                        std::uint64_t seed) {
  if (shape.faults == 0) return {partition::Plan::build(fault::FaultSet(shape.n))};
  std::vector<partition::Plan> plans;
  util::Rng rng(seed);
  for (int attempt = 0; attempt < 100'000 && plans.size() < shape.fault_sets;
       ++attempt) {
    std::vector<cube::NodeId> nodes;
    for (const std::uint64_t u :
         rng.sample_distinct(cube::num_nodes(shape.n), shape.faults))
      nodes.push_back(static_cast<cube::NodeId>(u));
    fault::FaultSet faults(shape.n, nodes);
    if (faults.isolates_healthy_node()) continue;
    // The workload fixes the plan shape (m, hence N'), so every seed sorts
    // on the same number of live processors.
    partition::Plan plan = partition::Plan::build(faults);
    if (plan.m() == shape.m) plans.push_back(std::move(plan));
  }
  if (plans.size() < shape.fault_sets)
    throw std::runtime_error("no fault set with the required plan shape");
  return plans;
}

SortBench::SortBench(const Shape& shape, std::uint64_t seed, Tracer& tracer)
    : shape_(shape),
      plans_(draw_plans(shape, stream_seed(seed, shape.name, 1))),
      tracer_(tracer) {
  {
    const auto span = tracer_.span("setup.inputs");
    util::Rng rng(stream_seed(seed, shape.name, 2));
    for (std::size_t i = 0; i < shape.inputs; ++i) {
      inputs_.push_back(sort::gen_uniform(shape.keys, rng));
      references_.push_back(inputs_.back());
      std::sort(references_.back().begin(), references_.back().end());
    }
  }
  for (const partition::Plan& plan : plans_) sorters_.emplace_back(plan);
  cycle_ = std::lcm(inputs_.size(), sorters_.size());
  if (shape.mode == Mode::Recovery) {
    // The campaign's own calibration (recovery shapes are fault-free): one
    // recovery run without kills; instruments off, they cost no sim time.
    const auto span = tracer_.span("setup.calibrate");
    campaign::CampaignConfig cc;
    cc.universe.n = shape.n;
    cc.universe.r_max = 1;
    cc.universe.num_keys = shape.keys;
    cc.seed = stream_seed(seed, shape.name, 3);
    cc.record_lineage = false;
    cc.record_link_stats = false;
    envelope_ = campaign::calibrate_envelope(cc);
    tiers_ = campaign::calibrated_recovery(cc, envelope_);
    arm_kills(shape.kills, stream_seed(seed, shape.name, 4));
  }
  const auto span = tracer_.span("setup.warmup");
  (void)run(0);
}

SortConfig SortBench::recovery_config() const {
  SortConfig cfg;
  cfg.online_recovery = true;
  cfg.recovery = tiers_;
  return cfg;
}

void SortBench::arm_kills(std::size_t count, std::uint64_t seed) {
  if (count % plans_.size() != 0)
    throw std::invalid_argument("kill count must cover every fault set");
  if (envelope_ == 0.0) {
    // Static faults: calibrate on this shape exactly as the campaign does
    // on a fault-free cube (no-kill recovery makespan x headroom).
    SortConfig cfg;
    cfg.online_recovery = true;
    const OpRun calib = run_config(0, cfg, true);
    campaign::CampaignConfig cc;
    cc.universe.r_max = 1;
    envelope_ = calib.report.makespan * cc.universe.envelope_scale;
    tiers_ = campaign::calibrated_recovery(cc, envelope_);
  }
  // Kill j runs on plan j % fault_sets. Victims: key-holding processors
  // other than the coordinator (the lowest statically-healthy address).
  // Times are stratified over [0, envelope): kill j lands in the j-th of
  // `count` equal slices, uniform within it.
  util::Rng rng(seed);
  kills_.clear();
  sorters_.clear();
  for (std::size_t j = 0; j < count; ++j) {
    const partition::Plan& plan = plans_[j % plans_.size()];
    std::vector<cube::NodeId> candidates;
    cube::NodeId coordinator = 0;
    while (plan.faults().is_faulty(coordinator)) ++coordinator;
    for (cube::NodeId u = 0; u < cube::num_nodes(shape_.n); ++u)
      if (u != coordinator && plan.role_of(u).live) candidates.push_back(u);
    Kill kill;
    kill.victim = candidates[rng.below(candidates.size())];
    kill.when = envelope_ * (static_cast<double>(j) + rng.uniform01()) /
                static_cast<double>(count);
    kills_.push_back(kill);
    SortConfig cfg = recovery_config();
    cfg.injector.kill_node_at(kill.victim, kill.when);
    sorters_.emplace_back(plan, cfg);
  }
  cycle_ = std::lcm(inputs_.size(), sorters_.size());
}

OpRun SortBench::run_with(const FaultTolerantSorter& sorter, std::size_t input,
                          bool keep_report) const {
  OpRun op;
  const std::uint64_t allocs0 = allocation_count();
  const auto t0 = Clock::now();
  try {
    core::SortOutcome out;
    {
      const auto span = tracer_.span("core.sort");
      out = sorter.sort(inputs_[input]);
    }
    op.wall_ms = ms_since(t0);
    op.allocations = allocation_count() - allocs0;
    {
      const auto span = tracer_.span("verify");
      op.failed = !output_matches(out.sorted, references_[input]);
    }
    const sim::RunReport& rep = out.report;
    OpCounters& c = op.counters;
    c.complete = true;
    c.makespan = rep.makespan;
    c.messages = static_cast<double>(rep.messages);
    c.keys_sent = static_cast<double>(rep.keys_sent);
    c.key_hops = static_cast<double>(rep.key_hops);
    c.comparisons = static_cast<double>(rep.comparisons);
    c.timeouts = static_cast<double>(rep.timeouts);
    c.dropped = static_cast<double>(rep.messages_dropped);
    c.pool_checkouts = static_cast<double>(rep.pool_delta.checkouts);
    c.pool_heap = static_cast<double>(rep.pool_delta.heap_allocations());
    c.attempts = 1 + rep.recovery_latency.episodes.size();
    c.recovered = !rep.recovery_latency.episodes.empty();
    c.detect = rep.recovery_latency.detection_total();
    c.rollcall = rep.recovery_latency.roll_call_total();
    c.salvage = rep.recovery_latency.salvage_total();
    c.restart = rep.recovery_latency.restart_total();
    if (keep_report) op.report = rep;
  } catch (const core::DegradationError&) {
    // Graceful degradation: not complete, not a failure.
    op.wall_ms = ms_since(t0);
  } catch (const std::exception& e) {
    op.wall_ms = ms_since(t0);
    op.failed = true;
    std::fprintf(stderr, "perfbench: op threw: %s\n", e.what());
  }
  return op;
}

void SortBench::describe(std::map<std::string, std::string>& prov) const {
  std::string faults, plans;
  for (std::size_t f = 0; f < plans_.size(); ++f) {
    const partition::Plan& p = plans_[f];
    const std::vector<cube::NodeId> cuts(p.split().cuts().begin(),
                                         p.split().cuts().end());
    faults += (f ? " " : "") + join_nodes(p.faults().addresses());
    plans += std::string(f ? " " : "") + "m=" + std::to_string(p.m()) +
             ",s=" + std::to_string(p.s()) +
             ",live=" + std::to_string(p.live_count()) +
             ",cuts=" + join_nodes(cuts);
  }
  prov["faults"] = faults;
  prov["plan"] = plans;
  std::ostringstream ks;
  ks << "[";
  for (std::size_t k = 0; k < kills_.size(); ++k)
    ks << (k ? "," : "") << "{\"victim\":" << kills_[k].victim
       << ",\"when_us\":" << kills_[k].when << "}";
  ks << "]";
  prov["kills"] = ks.str();
  std::ostringstream env;
  env << envelope_;
  prov["envelope_us"] = env.str();
}

// ---------------------------------------------------------------------------
// Campaign workload.

class CampaignBench {
 public:
  /// Set-up: `universes` campaign seeds drawn from the workload seed,
  /// calibration and one warm-up sweep of the first.
  CampaignBench(std::uint64_t seed, std::uint32_t scenarios,
                std::size_t universes, Tracer& tracer);

  /// The first universe; the campaign-layer probes run on it.
  const campaign::CampaignConfig& config() const { return cfgs_.front(); }
  const campaign::CampaignReport& reference() const {
    return *reports_.front();
  }
  std::size_t universes() const { return cfgs_.size(); }
  /// Report of every universe swept so far (index = universe).
  const std::vector<std::optional<campaign::CampaignReport>>& reports() const {
    return reports_;
  }
  sim::SimTime envelope() const { return envelope_; }
  double calibrate_ms() const { return calibrate_ms_; }

  struct Sweep {
    double wall_ms = 0.0;
    std::uint64_t failed = 0;  ///< failing trials, or all on a mismatch
    std::uint64_t allocations = 0;
  };
  /// Op i: one sweep of universe i % universes(). Its report must match
  /// the universe's first report exactly (it is deterministic in the seed).
  Sweep run(std::size_t i);
  /// One sweep under another configuration, checked for failing trials.
  Sweep run_config(const campaign::CampaignConfig& cfg) const {
    campaign::CampaignReport unused;
    return sweep(cfg, unused);
  }

 private:
  Sweep sweep(const campaign::CampaignConfig& cfg,
              campaign::CampaignReport& report) const;

  std::vector<campaign::CampaignConfig> cfgs_;
  std::vector<std::optional<campaign::CampaignReport>> reports_;
  sim::SimTime envelope_ = 0.0;
  double calibrate_ms_ = 0.0;
  Tracer& tracer_;
};

CampaignBench::CampaignBench(std::uint64_t seed, std::uint32_t scenarios,
                             std::size_t universes, Tracer& tracer)
    : reports_(universes), tracer_(tracer) {
  for (std::size_t k = 0; k < universes; ++k) {
    campaign::CampaignConfig cfg;
    cfg.universe.n = kCampaignDim;
    cfg.universe.r_max = kCampaignRMax;
    cfg.universe.scenarios = scenarios;
    cfg.universe.num_keys = 1024;
    cfg.seed = stream_seed(seed, "campaign_q6_r3_1k", 1 + k);
    cfg.workers = campaign_workers();
    cfgs_.push_back(cfg);
  }
  {
    const auto span = tracer_.span("setup.calibrate");
    const auto t0 = Clock::now();
    envelope_ = campaign::calibrate_envelope(cfgs_.front());
    calibrate_ms_ = ms_since(t0);
  }
  const auto span = tracer_.span("setup.warmup");
  (void)run(0);
}

CampaignBench::Sweep CampaignBench::run(std::size_t i) {
  const std::size_t k = i % cfgs_.size();
  campaign::CampaignReport rep;
  Sweep s = sweep(cfgs_[k], rep);
  if (s.wall_ms > 0.0 && s.failed < cfgs_[k].universe.trials()) {
    if (!reports_[k]) reports_[k] = std::move(rep);
    else if (!(rep == *reports_[k])) s.failed = std::max<std::uint64_t>(s.failed, 1);
  }
  return s;
}

CampaignBench::Sweep CampaignBench::sweep(const campaign::CampaignConfig& cfg,
                                          campaign::CampaignReport& rep) const {
  Sweep s;
  const std::uint64_t allocs0 = allocation_count();
  const auto t0 = Clock::now();
  try {
    {
      const auto span = tracer_.span("campaign.run_campaign");
      rep = campaign::run_campaign(cfg);
    }
    s.wall_ms = ms_since(t0);
    s.allocations = allocation_count() - allocs0;
    const auto span = tracer_.span("verify");
    s.failed = failed_trials(rep);
    if (!rep.conserves_trials()) s.failed = std::max<std::uint64_t>(s.failed, 1);
  } catch (const std::exception& e) {
    s.wall_ms = ms_since(t0);
    s.failed = cfg.universe.trials();
    std::fprintf(stderr, "perfbench: sweep threw: %s\n", e.what());
  }
  return s;
}

// ---------------------------------------------------------------------------
// Timed loops.

/// What the loop needs from one op.
struct OpSample {
  double wall_ms = 0.0;
  std::uint64_t failed = 0;
  std::uint64_t allocations = 0;
};

struct LoopStats {
  std::vector<double> wall_ms;         ///< untraced ops
  std::vector<double> traced_wall_ms;  ///< ops run with spans on
  std::vector<std::vector<double>> by_op;  ///< untraced walls per cycle slot
  std::uint64_t failed = 0;
  std::uint64_t allocations = 0;  ///< summed over the first cycle

  /// The 10th percentile of each distinct op's untraced walls, averaged
  /// over the cycle: robust to slow host periods (a low quantile) without
  /// letting the cheapest ops of a mixed cycle stand for all of them.
  double p10_mean() const {
    double sum = 0.0;
    std::size_t ops = 0;
    for (const auto& walls : by_op) {
      if (walls.empty()) continue;
      sum += quantile(walls, 0.1);
      ++ops;
    }
    return ops == 0 ? 0.0 : sum / static_cast<double>(ops);
  }
};

/// Run ops until `seconds` have passed and at least one cycle of the
/// workload's distinct ops ran. With `alternate_trace` every other cycle
/// records spans (the traced run), so the tracing overhead is measured
/// against untraced ops of the same inputs, interleaved in time.
template <typename Op>
LoopStats timed_loop(double seconds, std::size_t cycle, Tracer& tracer,
                     bool alternate_trace, Op&& op) {
  LoopStats st;
  st.by_op.resize(cycle);
  const std::size_t min_ops = alternate_trace ? 2 * cycle : cycle;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = ms_since(start);
    if ((elapsed >= seconds * 1000.0 && i >= min_ops) || elapsed > kLoopCapMs)
      break;
    const bool traced = alternate_trace && (i / cycle) % 2 == 1;
    tracer.set_op(i + 1);
    tracer.set_active(traced);
    OpSample s;
    {
      const auto span = tracer.span("op");
      s = op(i);
    }
    (traced ? st.traced_wall_ms : st.wall_ms).push_back(s.wall_ms);
    if (!traced) st.by_op[i % cycle].push_back(s.wall_ms);
    st.failed += s.failed;
    if (i < cycle) st.allocations += s.allocations;
  }
  tracer.set_op(0);
  tracer.set_active(true);
  return st;
}

// ---------------------------------------------------------------------------
// Per-layer probes of a sort shape.

constexpr std::array<sim::Phase, 9> kReportedPhases{
    sim::Phase::LocalSort,       sim::Phase::SubcubeSort,
    sim::Phase::MergeExchange,   sim::Phase::Resort,
    sim::Phase::RecoverySort,    sim::Phase::RecoveryCheckin,
    sim::Phase::RecoveryVerdict, sim::Phase::RecoverySalvage,
    sim::Phase::RecoveryRescatter};

/// Means of the deterministic counters over the completed ops of one
/// cycle; the share of ops that completed goes to `complete_frac`.
OpCounters cycle_means(const std::vector<OpCounters>& ops,
                       double* complete_frac = nullptr) {
  OpCounters sum;
  std::size_t completed = 0, recovered = 0;
  OpCounters rec;
  for (const OpCounters& c : ops) {
    if (!c.complete) continue;
    ++completed;
    sum.makespan += c.makespan;
    sum.messages += c.messages;
    sum.keys_sent += c.keys_sent;
    sum.key_hops += c.key_hops;
    sum.comparisons += c.comparisons;
    sum.timeouts += c.timeouts;
    sum.dropped += c.dropped;
    sum.pool_checkouts += c.pool_checkouts;
    sum.pool_heap += c.pool_heap;
    if (c.recovered) {
      ++recovered;
      rec.detect += c.detect;
      rec.rollcall += c.rollcall;
      rec.salvage += c.salvage;
      rec.restart += c.restart;
    }
  }
  if (complete_frac != nullptr)
    *complete_frac = ops.empty() ? 0.0
                                 : static_cast<double>(completed) /
                                       static_cast<double>(ops.size());
  const double n = std::max<double>(1.0, static_cast<double>(completed));
  OpCounters mean;
  mean.makespan = sum.makespan / n;
  mean.messages = sum.messages / n;
  mean.keys_sent = sum.keys_sent / n;
  mean.key_hops = sum.key_hops / n;
  mean.comparisons = sum.comparisons / n;
  mean.timeouts = sum.timeouts / n;
  mean.dropped = sum.dropped / n;
  mean.pool_checkouts = sum.pool_checkouts / n;
  mean.pool_heap = sum.pool_heap / n;
  // Recovery-latency stages average over the ops that actually recovered.
  const double r = std::max<double>(1.0, static_cast<double>(recovered));
  mean.detect = rec.detect / r;
  mean.rollcall = rec.rollcall / r;
  mean.salvage = rec.salvage / r;
  mean.restart = rec.restart / r;
  return mean;
}

struct KernelReplay {
  double local_sort_ms = 0.0;
  double merge_ms = 0.0;
};

/// Replays the kernels of op i on its real blocks: one local sort per live
/// processor per attempt, then one merge kernel per node-exchange the
/// per-phase receive counters imply (two receives per half exchange, one
/// per full-block exchange of the recovery driver).
KernelReplay replay_kernels(const SortBench& b, std::size_t i,
                            const sim::RunReport& rep, std::size_t attempts,
                            Tracer& tracer) {
  const bool recovery = b.config(i).online_recovery;
  const SortConfig cfg = b.config(i);
  sort::Distribution dist =
      sort::distribute_evenly(b.input(i), b.plan(i).live_count());
  std::vector<std::vector<Key>> blocks;
  KernelReplay out;
  std::uint64_t comparisons = 0;
  {
    const auto span = tracer.span("replay.local_sort");
    const auto t0 = Clock::now();
    for (std::size_t a = 0; a < attempts; ++a) {
      blocks = dist.blocks;
      for (auto& block : blocks)
        sort::local_sort(cfg.local_sort, block, comparisons);
    }
    out.local_sort_ms = ms_since(t0);
  }
  const sim::PhaseBreakdown& ph = rep.phases;
  std::uint64_t exchanges = 0;
  if (recovery) {
    exchanges = ph.of(sim::Phase::RecoverySort).counters.recvs;
  } else {
    exchanges = (ph.of(sim::Phase::SubcubeSort).counters.recvs +
                 ph.of(sim::Phase::MergeExchange).counters.recvs +
                 ph.of(sim::Phase::Resort).counters.recvs) /
                2;
  }
  const std::size_t nb = blocks.size();
  std::vector<Key> merged, kept, returned, back, scratch;
  const auto span = tracer.span("replay.merge");
  const auto t0 = Clock::now();
  for (std::uint64_t k = 0; k < exchanges && nb >= 2; ++k) {
    const std::span<const Key> mine(blocks[k % nb]);
    const std::span<const Key> theirs(blocks[(k + 1) % nb]);
    const auto keep = k % 2 ? sort::SplitHalf::Upper : sort::SplitHalf::Lower;
    if (recovery) {
      sort::merge_split_into(mine, theirs, keep, merged, comparisons);
      continue;
    }
    // One side of the half exchange: pairwise select, two unimodal sorts,
    // one merge (sort/spmd_bitonic.cpp).
    const std::size_t h = mine.size() / 2;
    sort::pairwise_select_rev_into(mine.subspan(h),
                                   theirs.first(mine.size() - h),
                                   sort::SplitHalf::Lower, kept, returned,
                                   comparisons);
    back.assign(returned.begin(), returned.end());
    sort::sort_unimodal(kept, scratch, comparisons);
    sort::sort_unimodal(back, scratch, comparisons);
    sort::merge_sorted_into(kept, back, merged, comparisons);
  }
  out.merge_ms = ms_since(t0);
  return out;
}

double per_second(double per_op, double op_ms) {
  return op_ms > 0.0 ? per_op * 1000.0 / op_ms : 0.0;
}

/// Names of the instrumentation layers with their SortConfig switches.
struct Instrument {
  const char* metric;
  void (*enable)(SortConfig&, sim::SimTime tick);
};
constexpr std::array<Instrument, 7> kInstruments{{
    {"sim.trace.overhead_x",
     [](SortConfig& c, sim::SimTime) { c.record_trace = true; }},
    {"sim.metrics.overhead_x",
     [](SortConfig& c, sim::SimTime) { c.record_metrics = true; }},
    {"sim.link_stats.overhead_x",
     [](SortConfig& c, sim::SimTime) { c.record_link_stats = true; }},
    {"sim.timeline.overhead_x",
     [](SortConfig& c, sim::SimTime tick) {
       c.record_timeline = true;
       c.timeline_tick = tick;
     }},
    {"sim.lineage.overhead_x",
     [](SortConfig& c, sim::SimTime) { c.record_lineage = true; }},
    {"sim.watchdog.overhead_x",
     [](SortConfig& c, sim::SimTime) { c.watchdog.enabled = true; }},
    {"sim.all.overhead_x",
     [](SortConfig& c, sim::SimTime tick) {
       c.record_trace = c.record_metrics = c.record_link_stats = true;
       c.record_timeline = c.record_lineage = true;
       c.timeline_tick = tick;
       c.watchdog.enabled = true;
     }},
}};

/// Every partition, sort, sim and core metric of one sort shape.
/// `op_p50_ms` is the traced loop's median op wall time; `cycle` holds the
/// counters of one cycle of the workload's ops.
void sort_layer_probes(SortBench& b, double op_p50_ms,
                       const std::vector<OpCounters>& cycle,
                       double allocations_per_op, std::uint64_t seed,
                       Tracer& tracer, RunResult& out) {
  // partition: Plan::build on the workload's fault sets, in turn.
  {
    std::vector<double> us;
    const auto span = tracer.span("partition.plan_build");
    for (std::size_t r = 0; r < 200; ++r) {
      const partition::Plan& want = b.plan(r);
      const auto t0 = Clock::now();
      const partition::Plan p = partition::Plan::build(want.faults());
      us.push_back(ms_since(t0) * 1000.0);
      if (p.live_count() != want.live_count())
        throw std::runtime_error("plan rebuild disagrees");
    }
    out.add("partition.plan_build_us", median(us), "us");
    out.add("partition.live_nodes", b.plan(0).live_count(), "count");
    out.add("partition.cut_dims", b.plan(0).m(), "count");
  }

  // Phase profile and kernel replays, one instrumented op per cycle entry.
  std::array<double, kReportedPhases.size()> phase_cmp{}, phase_crit{};
  std::vector<double> local_ms, merge_ms;
  for (std::size_t i = 0; i < b.cycle(); ++i) {
    SortConfig cfg = b.config(i);
    cfg.record_metrics = true;
    cfg.record_trace = true;
    OpRun op;
    {
      const auto span = tracer.span("instrument.phase_profile");
      op = b.run_config(i, cfg, true);
    }
    if (!op.counters.complete) continue;
    for (std::size_t p = 0; p < kReportedPhases.size(); ++p) {
      const auto& slice = op.report.phases.of(kReportedPhases[p]);
      phase_cmp[p] += static_cast<double>(slice.counters.comparisons);
      phase_crit[p] += slice.critical_time;
    }
    const KernelReplay kr =
        replay_kernels(b, i, op.report, op.counters.attempts, tracer);
    local_ms.push_back(kr.local_sort_ms);
    merge_ms.push_back(kr.merge_ms);
  }
  const double entries = std::max<double>(1.0, local_ms.size());
  for (std::size_t p = 0; p < kReportedPhases.size(); ++p) {
    const std::string name =
        std::string("phase.") + sim::phase_name(kReportedPhases[p]);
    out.add(name + ".comparisons", phase_cmp[p] / entries, "count");
    out.add(name + ".critical_us", phase_crit[p] / entries, "sim_us");
  }

  const OpCounters mean = cycle_means(cycle);
  const double kernel_ms = median(local_ms) + median(merge_ms);
  out.add("sort.local_sort_ms", median(local_ms), "ms");
  out.add("sort.merge_kernel_ms", median(merge_ms), "ms");
  out.add("sort.kernel_share", kernel_ms / op_p50_ms, "ratio");
  out.add("sort.comparisons_per_op", mean.comparisons, "count");

  out.add("sim.messages_per_op", mean.messages, "count");
  out.add("sim.keys_sent_per_op", mean.keys_sent, "count");
  out.add("sim.key_hops_per_op", mean.key_hops, "count");
  const double residual = op_p50_ms - kernel_ms;
  out.add("sim.residual_ms", residual, "ms");
  out.add("sim.ns_per_message",
          mean.messages > 0 ? residual * 1e6 / mean.messages : 0.0, "ns");
  out.add("sim.allocations_per_op", allocations_per_op, "count");
  out.add("sim.pool_checkouts_per_op", mean.pool_checkouts, "count");
  out.add("sim.pool_heap_allocations_per_op", mean.pool_heap, "count");

  // Instrumentation layers: wall ratio against the all-off op. Rounds run
  // every configuration in turn so drift hits all of them alike; an
  // instrument that has used up its share of the probe budget (lineage
  // grows superlinearly with the key count) keeps its samples so far.
  {
    const sim::SimTime tick = std::max(1.0, mean.makespan / 1000.0);
    constexpr double kBudgetMs = 8000.0, kPerInstrumentMs = 2000.0;
    std::vector<double> base;
    std::vector<std::vector<double>> walls(kInstruments.size());
    std::vector<double> spent(kInstruments.size(), 0.0);
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < 25; ++r) {
      if (r >= 3 && ms_since(t0) > kBudgetMs) break;
      const std::size_t i = r % b.cycle();
      {
        const auto span = tracer.span("instrument.off");
        base.push_back(b.run_config(i, b.config(i)).wall_ms);
      }
      for (std::size_t k = 0; k < kInstruments.size(); ++k) {
        if (!walls[k].empty() && spent[k] > kPerInstrumentMs) continue;
        SortConfig cfg = b.config(i);
        kInstruments[k].enable(cfg, tick);
        const auto span = tracer.span("instrument.on");
        walls[k].push_back(b.run_config(i, cfg).wall_ms);
        spent[k] += walls[k].back();
      }
    }
    for (std::size_t k = 0; k < kInstruments.size(); ++k)
      out.add(kInstruments[k].metric, median(walls[k]) / median(base), "x");
  }

  // core: recovery mode without a kill against the plain sort, same input.
  {
    const auto span = tracer.span("probe.core_nofault");
    SortConfig plain;
    const SortConfig rec = b.recovery_config();
    const std::size_t rounds = std::clamp<std::size_t>(
        static_cast<std::size_t>(1500.0 / (op_p50_ms * 3.0)), 3, 25);
    std::vector<double> pw, rw;
    double pm = 0.0, rm = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) {
      const OpRun p = b.run_config(r, plain);
      const OpRun q = b.run_config(r, rec);
      pw.push_back(p.wall_ms);
      rw.push_back(q.wall_ms);
      pm += p.counters.makespan;
      rm += q.counters.makespan;
    }
    out.add("core.recovery.nofault_wall_x", median(rw) / median(pw), "x");
    out.add("core.recovery.nofault_makespan_x", pm > 0 ? rm / pm : 0.0, "x");
  }

  // core: recovery latencies. The recovery shapes read their own cycle;
  // plain shapes run a kill cycle of the same construction on their plan.
  std::vector<OpCounters> kill_cycle = cycle;
  if (b.shape().mode == Mode::Plain) {
    const auto span = tracer.span("probe.core_kills");
    b.arm_kills(4, stream_seed(seed, b.shape().name, 5));
    kill_cycle.clear();
    for (std::size_t i = 0; i < b.cycle(); ++i) {
      const OpRun op = b.run(i);
      if (op.failed) ++out.failed;
      ++out.attempted;
      kill_cycle.push_back(op.counters);
    }
  }
  const OpCounters k = cycle_means(kill_cycle);
  out.add("core.recovery.detect_us", k.detect, "sim_us");
  out.add("core.recovery.rollcall_us", k.rollcall, "sim_us");
  out.add("core.recovery.salvage_us", k.salvage, "sim_us");
  out.add("core.recovery.restart_us", k.restart, "sim_us");
  out.add("core.recovery.timeouts_per_op", k.timeouts, "count");
  out.add("core.recovery.dropped_per_op", k.dropped, "count");
}

/// Every campaign metric, measured on `cb`'s universe.
void campaign_layer_probes(const CampaignBench& cb, double sweep_p50_ms,
                           Tracer& tracer, RunResult& out) {
  const campaign::CampaignConfig& cfg = cb.config();
  out.add("campaign.calibrate_ms", cb.calibrate_ms(), "ms");

  // Single-threaded replays of every trial, grouped by outcome class.
  std::vector<double> clean, recovered, degraded;
  double total_ms = 0.0;
  for (std::uint32_t t = 0; t < cfg.universe.trials(); ++t) {
    const auto span = tracer.span("campaign.run_trial");
    const auto t0 = Clock::now();
    const campaign::TrialResult res = campaign::run_trial(
        cfg, cb.envelope(), t, core::Executor::Sequential);
    const double ms = ms_since(t0);
    total_ms += ms;
    if (!(res == cb.reference().trials[t])) ++out.failed;
    ++out.attempted;
    switch (res.outcome) {
      case core::RunOutcome::CompletedClean: clean.push_back(ms); break;
      case core::RunOutcome::CompletedRecovered: recovered.push_back(ms); break;
      case core::RunOutcome::Degraded: degraded.push_back(ms); break;
      default: break;
    }
  }
  out.add("campaign.trial_ms.clean.p50", median(clean), "ms");
  out.add("campaign.trial_ms.recovered.p50", median(recovered), "ms");
  out.add("campaign.trial_ms.degraded.p50", median(degraded), "ms");
  out.add("campaign.worker_efficiency",
          total_ms / (static_cast<double>(cfg.workers) * sweep_p50_ms),
          "ratio");

  // Instrument shares: sweeps with one instrument off, interleaved with
  // the default sweep.
  campaign::CampaignConfig no_lineage = cfg, no_links = cfg;
  no_lineage.record_lineage = false;
  no_links.record_link_stats = false;
  std::vector<double> on, off_lineage, off_links;
  for (int r = 0; r < 3; ++r) {
    const auto span = tracer.span("instrument.campaign_share");
    on.push_back(cb.run_config(cfg).wall_ms);
    off_lineage.push_back(cb.run_config(no_lineage).wall_ms);
    off_links.push_back(cb.run_config(no_links).wall_ms);
  }
  out.add("campaign.lineage_share", 1.0 - median(off_lineage) / median(on),
          "ratio");
  out.add("campaign.link_stats_share", 1.0 - median(off_links) / median(on),
          "ratio");

  for (std::size_t o = 0; o < core::kRunOutcomeCount; ++o)
    out.add(std::string("campaign.outcome.") +
                core::run_outcome_name(static_cast<core::RunOutcome>(o)),
            cb.reference().outcomes[o], "count");
}

// ---------------------------------------------------------------------------
// Drivers.

/// Span self times to stderr; the spans themselves to --trace-out.
void finish_trace(const Tracer& tracer, const Options& opt) {
  std::fprintf(stderr, "%-28s %12s %12s\n", "span", "total_ms", "self_ms");
  for (const auto& [name, t] : tracer.self_times_ms())
    std::fprintf(stderr, "%-28s %12.3f %12.3f\n", name.c_str(), t.first,
                 t.second);
  if (!opt.trace_out.empty()) tracer.write_chrome_json(opt.trace_out);
}

/// Runs the set-up from scratch at least `repeats` times (up to 11 while
/// they take under 1.5 s in total) and keeps the last bench.
template <typename Bench, typename Make>
std::unique_ptr<Bench> timed_setups(int repeats, Tracer& tracer,
                                    std::vector<double>& setup_s,
                                    Make&& make) {
  std::unique_ptr<Bench> bench;
  double total_s = 0.0;
  while (setup_s.size() < static_cast<std::size_t>(repeats) ||
         (repeats > 1 && setup_s.size() < 11 && total_s < 1.5)) {
    bench.reset();
    const auto span = tracer.span("setup");
    const auto t0 = Clock::now();
    bench = make();
    setup_s.push_back(ms_since(t0) / 1000.0);
    total_s += setup_s.back();
  }
  return bench;
}

/// The end-to-end metrics. Op time is gated on LoopStats::p10_mean: on a
/// shared host, slow periods of several seconds come and go, and the share
/// of a run they cover moves the median by up to 25% between runs while
/// the fast end of each op's distribution stays put (see README.md).
void add_common(RunResult& out, const LoopStats& loop, double setup_s,
                double keys_per_op, double trials_per_op, double makespan,
                double complete_frac, double verified_frac) {
  const double op_ms = loop.p10_mean();
  out.add("setup_s", setup_s, "s");
  out.add("op_wall_ms.p10_mean", op_ms, "ms");
  out.add("keys_per_s", per_second(keys_per_op, op_ms), "1/s");
  out.add("trials_per_s", per_second(trials_per_op, op_ms), "1/s");
  out.add("makespan_us", makespan, "sim_us");
  out.add("verified_frac", verified_frac, "ratio");
  out.add("complete_frac", complete_frac, "ratio");
}

RunResult run_sort_workload(const Shape& shape, const Options& opt) {
  RunResult out;
  Tracer tracer(opt.trace);
  std::vector<double> setup_s;
  const std::uint64_t seed = opt.seed;
  auto bench = timed_setups<SortBench>(opt.trace ? 1 : 3, tracer, setup_s, [&] {
    return std::make_unique<SortBench>(shape, seed, tracer);
  });
  SortBench& b = *bench;
  b.describe(out.provenance);

  std::vector<OpCounters> cycle(b.cycle());
  LoopStats loop;
  {
    const auto measure = tracer.span("measure");
    loop = timed_loop(opt.trace ? opt.seconds / 2.0 : opt.seconds, b.cycle(),
                      tracer, opt.trace, [&](std::size_t i) {
                        const OpRun op = b.run(i);
                        if (i < cycle.size()) cycle[i] = op.counters;
                        return OpSample{op.wall_ms, op.failed,
                                        op.allocations};
                      });
  }
  out.attempted += loop.wall_ms.size() + loop.traced_wall_ms.size();
  out.failed += loop.failed;

  double complete_frac = 0.0;
  const double makespan = cycle_means(cycle, &complete_frac).makespan;
  const double ops =
      static_cast<double>(loop.wall_ms.size() + loop.traced_wall_ms.size());
  if (!opt.trace) {
    add_common(out, loop, median(setup_s), static_cast<double>(shape.keys),
               1.0, makespan, complete_frac,
               1.0 - static_cast<double>(loop.failed) / ops);
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }
  const double traced_p50 = median(loop.traced_wall_ms);
  out.add("op_wall_ms.p50", median(loop.wall_ms), "ms");
  out.add("op_wall_ms.p90", quantile(loop.wall_ms, 0.9), "ms");
  out.add("bench.tracing_overhead_x", traced_p50 / median(loop.wall_ms), "x");
  sort_layer_probes(b, traced_p50,
                    cycle, static_cast<double>(loop.allocations) /
                               static_cast<double>(b.cycle()),
                    seed, tracer, out);
  b.describe(out.provenance);  // the plain shapes' probe kill cycle
  {
    const auto span = tracer.span("probe.campaign");
    CampaignBench cb(seed, kProbeScenarios, 1, tracer);
    std::vector<double> sweeps;
    for (int r = 0; r < 3; ++r) sweeps.push_back(cb.run(0).wall_ms);
    campaign_layer_probes(cb, median(sweeps), tracer, out);
  }
  finish_trace(tracer, opt);
  return out;
}

RunResult run_campaign_workload(const Options& opt) {
  RunResult out;
  Tracer tracer(opt.trace);
  std::vector<double> setup_s;
  auto bench = timed_setups<CampaignBench>(opt.trace ? 1 : 3, tracer, setup_s, [&] {
    // The traced run sweeps one universe, so traced and untraced sweeps
    // compare like with like.
    return std::make_unique<CampaignBench>(
        opt.seed, kCampaignScenarios, opt.trace ? 1 : kCampaignUniverses,
        tracer);
  });
  CampaignBench& cb = *bench;
  const auto& cfg = cb.config();
  const double trials = cfg.universe.trials();
  {
    std::ostringstream env;
    env << cb.envelope();
    out.provenance["campaign"] =
        "n=" + std::to_string(cfg.universe.n) +
        " r_max=" + std::to_string(cfg.universe.r_max) +
        " scenarios=" + std::to_string(cfg.universe.scenarios) +
        " keys=" + std::to_string(cfg.universe.num_keys) +
        " workers=" + std::to_string(cfg.workers) +
        " campaign_seed=" + std::to_string(cfg.seed);
    out.provenance["envelope_us"] = env.str();
  }

  LoopStats loop;
  {
    const auto measure = tracer.span("measure");
    loop = timed_loop(opt.trace ? opt.seconds / 2.0 : opt.seconds,
                      cb.universes(), tracer, opt.trace, [&](std::size_t i) {
                        const CampaignBench::Sweep s = cb.run(i);
                        return OpSample{s.wall_ms, s.failed, s.allocations};
                      });
  }
  const double sweeps =
      static_cast<double>(loop.wall_ms.size() + loop.traced_wall_ms.size());
  out.attempted += static_cast<std::uint64_t>(sweeps * trials);
  out.failed += loop.failed;

  // Deterministic metrics over every universe of the cycle.
  double makespan = 0.0;
  std::size_t completed = 0, swept = 0;
  for (const auto& rep : cb.reports()) {
    if (!rep) continue;
    for (const campaign::TrialResult& t : rep->trials) {
      ++swept;
      if (!core::outcome_completed(t.outcome)) continue;
      makespan += t.makespan;
      ++completed;
    }
  }
  makespan /= std::max<double>(1.0, static_cast<double>(completed));
  const double complete_frac = static_cast<double>(completed) /
                               std::max<double>(1.0, static_cast<double>(swept));
  if (!opt.trace) {
    add_common(out, loop, median(setup_s), trials * cfg.universe.num_keys,
               trials, makespan, complete_frac,
               1.0 - static_cast<double>(loop.failed) / (sweeps * trials));
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }
  const double traced_p50 = median(loop.traced_wall_ms);
  out.add("op_wall_ms.p50", median(loop.wall_ms), "ms");
  out.add("op_wall_ms.p90", quantile(loop.wall_ms, 0.9), "ms");
  out.add("bench.tracing_overhead_x", traced_p50 / median(loop.wall_ms), "x");
  campaign_layer_probes(cb, traced_p50, tracer, out);
  // The sort, sim, core and partition layers on the campaign's unit of
  // work: one trial-shaped recovery sort.
  {
    const auto span = tracer.span("probe.trial_shape");
    SortBench tb(kTrialShape, opt.seed, tracer);
    std::vector<OpCounters> cycle(tb.cycle());
    const LoopStats tl = timed_loop(
        1.0, tb.cycle(), tracer, true, [&](std::size_t i) {
          const OpRun op = tb.run(i);
          if (i < cycle.size()) cycle[i] = op.counters;
          return OpSample{op.wall_ms, op.failed, op.allocations};
        });
    out.failed += tl.failed;
    out.attempted += tl.wall_ms.size() + tl.traced_wall_ms.size();
    sort_layer_probes(tb, median(tl.traced_wall_ms), cycle,
                      static_cast<double>(tl.allocations) /
                          static_cast<double>(tb.cycle()),
                      opt.seed, tracer, out);
    tb.describe(out.provenance);
  }
  finish_trace(tracer, opt);
  return out;
}

}  // namespace

RunResult run_workload(const Options& opt) {
  for (const Shape& s : kShapes) {
    if (opt.workload != s.name) continue;
    RunResult r = s.mode == Mode::Campaign ? run_campaign_workload(opt)
                                           : run_sort_workload(s, opt);
    r.provenance["workload"] = s.name;
    return r;
  }
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

}  // namespace perfbench
