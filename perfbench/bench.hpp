// Shared plumbing of the repository benchmark: metric sink, wall-clock
// spans, small statistics helpers and the output checker.
//
// Every layer is measured from outside: the benchmark times calls into the
// public functions of src/ and reads the RunReport counters they return.
// Nothing here reaches into library internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "sim/message.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using ftsort::sim::Key;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Heap allocations made through the global operator new since start-up
/// (alloc_hook.cpp). Monotone; callers take deltas.
std::uint64_t allocation_count();

// ---- statistics -----------------------------------------------------------

/// Median with the midpoint rule for even sizes; 0 for an empty sample.
double median(std::vector<double> v);
/// Nearest-rank quantile, q in (0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

// ---- correctness ----------------------------------------------------------

/// True when `out` is exactly `reference` — the sorted input multiset.
bool output_matches(std::span<const Key> out, std::span<const Key> reference);

/// Trials of a campaign report whose class counts as a failure: Corrupt,
/// Failed and Deadlocked.
std::uint64_t failed_trials(const ftsort::campaign::CampaignReport& report);

/// Feeds both checkers corrupted outputs (swapped keys, a dropped key, a
/// duplicated key, a Corrupt trial) and returns true only when every
/// corruption is counted as a failure and the clean output passes.
bool checker_self_test();

// ---- metrics --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation prints: the result line and a provenance line.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checker_ok = false;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> provenance;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// ---- spans ----------------------------------------------------------------

/// In-memory span recorder for the traced run: name, start, end, parent and
/// the op id shared by every span of one op. Disabled tracers record
/// nothing and cost one branch per scope.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t op = 0;
    std::int64_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    friend class Tracer;
    Scope(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    std::size_t index_;
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Op id stamped on spans opened from now on (0 = outside any op).
  void set_op(std::uint64_t op) { op_ = op; }
  /// Pause (false) or resume recording; the traced loop interleaves
  /// untraced ops to measure the tracing overhead.
  void set_active(bool active) { active_ = active; }
  /// Open a span under the innermost open one; closes when the Scope dies.
  /// `name` must be a string literal.
  Scope span(const char* name);

  /// Per name: total and self ms (duration minus child-covered time).
  std::map<std::string, std::pair<double, double>> self_times_ms() const;
  /// Chrome trace-event JSON ("X" events, op id and parent in args).
  void write_chrome_json(const std::string& path) const;

 private:
  void close(std::size_t index);

  bool enabled_;
  bool active_ = true;
  std::uint64_t op_ = 0;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// ---- workloads (workloads.cpp) --------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace JSON of the spans; empty = none
};

/// Set up, measure and check one workload. Throws on bad options.
RunResult run_workload(const Options& options);

}  // namespace perfbench
