#include "tools/ftdiag.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>

#include "sim/phase.hpp"
#include "util/json.hpp"
#include "util/schema.hpp"

namespace ftsort::tools {

namespace {

namespace json = util::json;

/// A reader's refusal of a document that parsed but is not what the
/// reader reads. Shares json::Error with the parser and the typed
/// accessors, so each public reader has one catch.
[[noreturn]] void refuse(const std::string& why) { throw json::Error(why); }

/// What each reader expects, appended to a parse error so that a file
/// that is not JSON at all still names the structure that was wanted.
constexpr const char* kTraceDoc = "a Chrome trace with \"traceEvents\"";
constexpr const char* kExportDoc =
    "a metrics export with \"phases\" or a bench export with "
    "\"scenarios\"";
constexpr const char* kCampaignDoc = "a campaign export with \"buckets\"";
constexpr const char* kLineageDoc = "a metrics export with a \"lineage\" block";
constexpr const char* kDumpDoc = "a watchdog dump with \"watchdog_dump\"";

std::string parse_failure(const char* what, const char* expect) {
  return std::string(what) + " (expected " + expect + ")";
}

/// Text entry points: parse, then run the document reader `read`.
template <class Result, class Fn>
Result read_text(const std::string& text, const char* expect, Fn&& read) {
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const json::Error& e) {
    Result res;
    res.error = parse_failure(e.what(), expect);
    return res;
  }
  return read(doc);
}

// Newest schema version each reader understands — derived from the one
// shared writer/reader table (util/schema.hpp), so the readers can never
// lag the writers. Files *older* than the ceiling still parse (new keys
// are additive and simply absent); files *newer* than the ceiling are
// refused with a versioned message instead of a silent misparse.
constexpr double kMetricsSchemaMax = util::kMetricsSchemaVersion;
constexpr double kBenchSchemaMax = util::kBenchSchemaVersion;
constexpr double kCampaignSchemaMax = util::kCampaignSchemaVersion;
constexpr double kWatchdogSchemaMax = util::kWatchdogDumpSchemaVersion;

/// Refuses documents whose top-level schema_version is newer than
/// `ceiling`. `what` names the format in the error ("metrics JSON", ...).
/// A missing schema_version (hand-made fixtures, pre-versioning files)
/// passes: absent means v0.
void check_schema_ceiling(const json::Ref& doc, const char* what,
                          double ceiling) {
  const double sv = doc.get_or("schema_version", 0.0);
  if (sv <= ceiling) return;
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s is schema v%g, this build reads up to v%g",
                what, sv, ceiling);
  refuse(buf);
}

// ---------------------------------------------------------------------------
// diff: parsed per-run phase samples.

struct PhaseSample {
  double critical_time = 0.0;
  double critical_comm = 0.0;
  double critical_compute = 0.0;
  bool has_split = false;  ///< comm/compute columns present (metrics format)
};

struct RunSample {
  std::string scenario;  ///< empty for the single-run metrics format
  double makespan = 0.0;
  /// Cost-model signature ("name/routing t_c=.. t_t=.. t_s=..") parsed
  /// from the export's cost_model block; empty for pre-v4 metrics /
  /// pre-v3 bench files that did not record one. Two runs only compare
  /// when their signatures are absent or equal — critical_time is in
  /// cost-model units, so cross-model deltas are meaningless.
  std::string cost_sig;
  // Ordered map: deterministic iteration -> deterministic report text.
  std::map<std::string, PhaseSample> phases;
};

struct ParsedDoc {
  bool bench_format = false;  ///< true = bench scenarios, false = metrics
  std::vector<RunSample> runs;
};

/// Signature of the `cost_model` object of `obj` (a whole metrics export
/// or one bench scenario object), or empty when the block is absent.
/// Formats the constants with %g so the signature is stable across the
/// %.17g writers in both exporters.
std::string cost_signature(const json::Ref& obj) {
  const std::optional<json::Ref> cm = obj.find("cost_model");
  if (!cm) return {};
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s/%s t_c=%g t_t=%g t_s=%g",
                cm->get_or("name", std::string()).c_str(),
                cm->get_or("routing", std::string()).c_str(),
                cm->get_or("t_compare", 0.0), cm->get_or("t_transfer", 0.0),
                cm->get_or("t_startup", 0.0));
  return buf;
}

/// One phase slice: a metrics `phases[]` element or a bench phase entry.
PhaseSample read_phase_counters(const json::Ref& obj) {
  PhaseSample out;
  out.critical_time = obj.get_or("critical_time", 0.0);
  const std::optional<json::Ref> comm = obj.find("critical_comm");
  const std::optional<json::Ref> compute = obj.find("critical_compute");
  out.critical_comm = comm ? comm->number() : 0.0;
  out.critical_compute = compute ? compute->number() : 0.0;
  out.has_split = comm && compute;
  return out;
}

/// Metrics format: top-level `"phases": [ {"phase": "name", ...}, ... ]`.
void parse_metrics_doc(const json::Ref& doc, ParsedDoc* out) {
  check_schema_ceiling(doc, "metrics JSON", kMetricsSchemaMax);
  RunSample run;
  run.makespan = doc.get_or("makespan", 0.0);
  run.cost_sig = cost_signature(doc);
  const std::optional<json::Ref> phases = doc.find("phases");
  if (!phases) refuse("metrics JSON without a \"phases\" array");
  for (const json::Ref& slice : phases->items())
    run.phases[slice["phase"].str()] = read_phase_counters(slice);
  out->bench_format = false;
  out->runs.push_back(std::move(run));
}

/// Bench format: `"scenarios": [ {"name": ..., "phases": { ... }}, ... ]`.
void parse_bench_doc(const json::Ref& doc, ParsedDoc* out) {
  check_schema_ceiling(doc, "bench JSON", kBenchSchemaMax);
  for (const json::Ref& sc : doc["scenarios"].items()) {
    RunSample run;
    run.scenario = sc["name"].str();
    run.makespan = sc.get_or("makespan", 0.0);
    run.cost_sig = cost_signature(sc);
    if (const std::optional<json::Ref> phases = sc.find("phases"))
      for (const auto& [name, slice] : phases->members())
        run.phases[name] = read_phase_counters(slice);
    out->runs.push_back(std::move(run));
  }
  out->bench_format = true;
}

/// The format is chosen by the top-level key: bench exports carry
/// `scenarios`, metrics exports do not.
ParsedDoc parse_doc(const json::Value& value) {
  const json::Ref doc(value);
  ParsedDoc out;
  if (doc.find("scenarios"))
    parse_bench_doc(doc, &out);
  else
    parse_metrics_doc(doc, &out);
  return out;
}

void put_pct(std::ostream& os, double pct) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", pct);
  os << buf;
}

void put_us(std::ostream& os, double us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", us);
  os << buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// explain

static ExplainResult explain_trace_json(const util::json::Value& trace) {
  ExplainResult res;
  sim::DiagnosisInput input;
  try {
    const json::Ref doc(trace);
    const std::optional<json::Ref> events = doc.find("traceEvents");
    if (!events) refuse("not a Chrome trace: missing \"traceEvents\"");
    for (const json::Ref& ev : events->items()) {
      const std::string& name = ev["name"].str();
      const std::optional<json::Ref> args = ev.find("args");
      if (name == "trace_dropped") {
        // Ring-eviction metadata (always exported, count 0 = complete
        // trace). A nonzero count makes diagnose() degrade a silent-peer
        // verdict to RootKind::Evicted instead of guessing from a partial
        // event stream.
        input.trace_dropped =
            args ? args->get_or("count", std::uint64_t{0}) : 0;
        continue;
      }
      if (name != "timeout" && name != "kill") continue;
      const double ts = ev["ts"].number();
      const auto node = static_cast<cube::NodeId>(ev["tid"].uint64());
      const sim::Phase phase = sim::phase_from_name(
          args ? args->get_or("phase", std::string()) : std::string());
      if (name == "timeout") {
        ++res.timeout_events;
        input.waits.push_back(
            {node,
             static_cast<cube::NodeId>(
                 args ? args->get_or("src", std::uint64_t{0}) : 0),
             static_cast<sim::Tag>(
                 args ? args->get_or("tag", std::uint64_t{0}) : 0),
             ts, phase, /*expired=*/true});
      } else {
        ++res.kill_events;
        input.kills.push_back({node, ts, phase});
      }
    }
  } catch (const json::Error& e) {
    res.error = e.what();
    return res;
  }

  const sim::Diagnosis::Kind kind =
      res.timeout_events > 0  ? sim::Diagnosis::Kind::TimeoutBurst
      : res.kill_events > 0   ? sim::Diagnosis::Kind::NodeLoss
                              : sim::Diagnosis::Kind::None;
  res.diagnosis = sim::diagnose(std::move(input), kind);
  res.ok = true;

  std::ostringstream out;
  out << "ftdiag explain: " << res.timeout_events << " timeout(s), "
      << res.kill_events << " kill(s) in trace\n";
  if (res.diagnosis.triggered())
    out << res.diagnosis.to_string() << "\n";
  else
    out << "no failure evidence recorded; nothing to explain\n";
  res.text = out.str();
  return res;
}

ExplainResult explain_trace_json(const std::string& json) {
  return read_text<ExplainResult>(
      json, kTraceDoc,
      [](const json::Value& doc) { return explain_trace_json(doc); });
}

// ---------------------------------------------------------------------------
// diff

namespace {

/// Both documents of a two-file reader, each refusal labelled with the
/// file it came from.
template <class Doc, class Fn>
bool read_pair(const json::Value& a, const json::Value& b, Fn&& read,
               Doc* da, Doc* db, std::string* err) {
  try {
    *da = read(a);
  } catch (const json::Error& e) {
    *err = std::string("first file: ") + e.what();
    return false;
  }
  try {
    *db = read(b);
  } catch (const json::Error& e) {
    *err = std::string("second file: ") + e.what();
    return false;
  }
  return true;
}

/// Text entry point of a two-file reader.
template <class Result, class Fn>
Result read_text_pair(const std::string& a, const std::string& b,
                      const char* expect, Fn&& read) {
  json::Value da;
  json::Value db;
  const char* side = "first file: ";
  try {
    da = json::parse(a);
    side = "second file: ";
    db = json::parse(b);
  } catch (const json::Error& e) {
    Result res;
    res.error = side + parse_failure(e.what(), expect);
    return res;
  }
  return read(da, db);
}

}  // namespace

static DiffResult diff_json(const util::json::Value& a,
                            const util::json::Value& b,
                            double threshold_pct) {
  DiffResult res;
  res.threshold_pct = threshold_pct;
  ParsedDoc da;
  ParsedDoc db;
  if (!read_pair(a, b, parse_doc, &da, &db, &res.error)) return res;
  if (da.bench_format != db.bench_format) {
    res.error = "format mismatch: one file is a bench export, the other a "
                "metrics export";
    return res;
  }

  std::ostringstream out;
  out << "ftdiag diff (threshold \xC2\xB1";
  put_us(out, threshold_pct);
  out << "% on per-phase critical_time)\n";

  std::size_t compared = 0;
  for (const RunSample& ra : da.runs) {
    const RunSample* rb = nullptr;
    for (const RunSample& cand : db.runs)
      if (cand.scenario == ra.scenario) {
        rb = &cand;
        break;
      }
    if (rb == nullptr) continue;  // scenario dropped between runs
    // Refuse cross-model comparisons outright: critical_time is measured
    // in cost-model units, so a delta against a different model (or
    // routing mode) is noise dressed as a regression. Files predating the
    // cost_model block (empty signature) still compare for compatibility.
    if (!ra.cost_sig.empty() && !rb->cost_sig.empty() &&
        ra.cost_sig != rb->cost_sig) {
      res.error = "cost model mismatch" +
                  (ra.scenario.empty() ? std::string()
                                       : " in scenario " + ra.scenario) +
                  ": \"" + ra.cost_sig + "\" vs \"" + rb->cost_sig +
                  "\" — refusing to compare runs under different cost models";
      res.ok = false;
      return res;
    }
    const std::string where =
        ra.scenario.empty() ? std::string() : ra.scenario + " ";
    if (ra.makespan > 0.0 && rb->makespan > 0.0 &&
        ra.makespan != rb->makespan) {
      out << "  " << where << "makespan ";
      put_us(out, ra.makespan);
      out << " -> ";
      put_us(out, rb->makespan);
      out << " (";
      put_pct(out, 100.0 * (rb->makespan - ra.makespan) / ra.makespan);
      out << ")\n";
    }
    for (const auto& [phase, pa] : ra.phases) {
      const auto it = rb->phases.find(phase);
      if (it == rb->phases.end()) continue;
      const PhaseSample& pb = it->second;
      if (pa.critical_time == 0.0 && pb.critical_time == 0.0) continue;
      ++compared;
      PhaseDelta d;
      d.scenario = ra.scenario;
      d.phase = phase;
      d.before = pa.critical_time;
      d.after = pb.critical_time;
      d.delta_pct = pa.critical_time > 0.0
                        ? 100.0 * (pb.critical_time - pa.critical_time) /
                              pa.critical_time
                        : 100.0;
      d.regression = std::fabs(d.delta_pct) > threshold_pct;
      if (pa.has_split && pb.has_split) {
        const double dcomm = pb.critical_comm - pa.critical_comm;
        const double dcompute = pb.critical_compute - pa.critical_compute;
        d.attribution =
            std::fabs(dcomm) >= std::fabs(dcompute) ? "comm" : "compute";
      }
      if (d.regression || d.delta_pct != 0.0) {
        out << "  " << where << phase << ": critical_time ";
        put_us(out, d.before);
        out << " -> ";
        put_us(out, d.after);
        out << " (";
        put_pct(out, d.delta_pct);
        out << ")";
        if (!d.attribution.empty()) out << " [" << d.attribution << "]";
        if (d.regression) out << " REGRESSION";
        out << "\n";
      }
      if (d.regression) ++res.regressions;
      res.deltas.push_back(std::move(d));
    }
  }
  out << "summary: " << res.regressions << " regression(s) beyond \xC2\xB1";
  put_us(out, threshold_pct);
  out << "% across " << compared << " compared phase(s)\n";
  res.ok = true;
  res.text = out.str();
  return res;
}

DiffResult diff_json(const std::string& a, const std::string& b,
                     double threshold_pct) {
  return read_text_pair<DiffResult>(
      a, b, kExportDoc, [&](const json::Value& da, const json::Value& db) {
        return diff_json(da, db, threshold_pct);
      });
}

// ---------------------------------------------------------------------------
// hotspots

namespace {

/// One cube dimension's parsed traffic rollup.
struct DimTraffic {
  double traversals = 0.0;
  double key_hops = 0.0;
  double busy = 0.0;
  double utilization = 0.0;
};

/// Link telemetry of one run (metrics export) or scenario (bench export).
struct LinkRun {
  std::string scenario;  ///< empty for the single-run metrics format
  double total_key_hops = 0.0;
  std::map<int, DimTraffic> dims;
  // Communication volume per phase: key_hops for the metrics format,
  // keys_sent for the bench format (which carries no per-phase hops).
  std::map<std::string, double> phase_comm;
};

DimTraffic read_dim_entry(const json::Ref& obj) {
  DimTraffic out;
  out.traversals = obj.get_or("traversals", 0.0);
  out.key_hops = obj.get_or("key_hops", 0.0);
  out.busy = obj.get_or("busy", 0.0);
  out.utilization = obj.get_or("utilization", 0.0);
  return out;
}

/// Metrics format: the `links` block plus per-phase `key_hops`.
std::vector<LinkRun> parse_links_metrics(const json::Ref& doc) {
  check_schema_ceiling(doc, "metrics JSON", kMetricsSchemaMax);
  const std::optional<json::Ref> links = doc.find("links");
  if (!links)
    refuse("metrics JSON without a \"links\" block (schema v3 required)");
  if (!links->get_or("enabled", false))
    refuse("run recorded no link telemetry (record_link_stats off)");
  LinkRun run;
  if (const std::optional<json::Ref> total = links->find("total"))
    run.total_key_hops = total->get_or("key_hops", 0.0);
  if (const std::optional<json::Ref> dims = links->find("per_dimension"))
    for (const json::Ref& cell : dims->items())
      run.dims[static_cast<int>(cell["dim"].uint64())] = read_dim_entry(cell);
  // Per-phase comm volume from the phases array.
  if (const std::optional<json::Ref> phases = doc.find("phases"))
    for (const json::Ref& slice : phases->items()) {
      const double hops = slice.get_or("key_hops", 0.0);
      if (hops > 0.0) run.phase_comm[slice["phase"].str()] = hops;
    }
  return {std::move(run)};
}

/// Bench format: per-scenario `link_key_hops` / `link_dimensions`.
std::vector<LinkRun> parse_links_bench(const json::Ref& doc) {
  check_schema_ceiling(doc, "bench JSON", kBenchSchemaMax);
  std::vector<LinkRun> runs;
  for (const json::Ref& sc : doc["scenarios"].items()) {
    const std::optional<json::Ref> dims = sc.find("link_dimensions");
    if (!dims) continue;  // kernel micro: no link data
    LinkRun run;
    run.scenario = sc["name"].str();
    run.total_key_hops = sc.get_or("link_key_hops", 0.0);
    for (const auto& [key, cell] : dims->members()) {
      int d = -1;
      const auto [end, ec] =
          std::from_chars(key.data(), key.data() + key.size(), d);
      if (ec != std::errc{} || end != key.data() + key.size() || d < 0)
        refuse(dims->path() + ": key \"" + key + "\" is not a dimension");
      run.dims[d] = read_dim_entry(cell);
    }
    // Comm volume per phase: the bench rows carry keys_sent.
    if (const std::optional<json::Ref> phases = sc.find("phases"))
      for (const auto& [name, slice] : phases->members()) {
        const double keys = slice.get_or("keys_sent", 0.0);
        if (keys > 0.0) run.phase_comm[name] = keys;
      }
    runs.push_back(std::move(run));
  }
  if (runs.empty())
    refuse("no scenario carries link telemetry (link_dimensions)");
  return runs;
}

std::vector<LinkRun> parse_links_doc(const json::Value& value) {
  const json::Ref doc(value);
  return doc.find("scenarios") ? parse_links_bench(doc)
                               : parse_links_metrics(doc);
}

}  // namespace

static HotspotsResult hotspots_report(const util::json::Value& doc,
                                      std::size_t top_k) {
  HotspotsResult res;
  std::vector<LinkRun> runs;
  try {
    runs = parse_links_doc(doc);
  } catch (const json::Error& e) {
    res.error = e.what();
    return res;
  }

  std::ostringstream out;
  out << "ftdiag hotspots (dimensions ranked by wire busy time)\n";
  for (const LinkRun& run : runs) {
    const std::string where =
        run.scenario.empty() ? std::string() : run.scenario + " ";
    out << "  " << where << "total key_hops ";
    put_us(out, run.total_key_hops);
    out << " across " << run.dims.size() << " dimension(s)\n";

    // Rank dimensions by busy time; ties broken by index for determinism.
    std::vector<std::pair<int, DimTraffic>> ranked(run.dims.begin(),
                                                   run.dims.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second.busy != b.second.busy) return a.second.busy > b.second.busy;
      return a.first < b.first;
    });
    const std::size_t shown =
        top_k == 0 ? ranked.size() : std::min(top_k, ranked.size());
    for (std::size_t i = 0; i < shown; ++i) {
      const auto& [d, t] = ranked[i];
      out << "    dim " << d << ": busy ";
      put_us(out, t.busy);
      out << " us, key_hops ";
      put_us(out, t.key_hops);
      out << ", traversals ";
      put_us(out, t.traversals);
      out << ", utilization ";
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3f", t.utilization);
      out << buf << "\n";
    }

    // Comm attribution: which paper phases pushed the traffic.
    double comm_total = 0.0;
    for (const auto& [name, v] : run.phase_comm) comm_total += v;
    if (comm_total > 0.0) {
      std::vector<std::pair<std::string, double>> phases(
          run.phase_comm.begin(), run.phase_comm.end());
      std::sort(phases.begin(), phases.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
      out << "    comm by phase:";
      for (const auto& [name, v] : phases) {
        char pct[32];
        std::snprintf(pct, sizeof pct, "%.1f%%", 100.0 * v / comm_total);
        out << " " << name << " " << pct;
      }
      out << "\n";
    }
  }
  res.ok = true;
  res.text = out.str();
  return res;
}

HotspotsResult hotspots_report(const std::string& json, std::size_t top_k) {
  return read_text<HotspotsResult>(json, kExportDoc,
                                   [&](const json::Value& doc) {
                                     return hotspots_report(doc, top_k);
                                   });
}

static HotspotsResult hotspots_diff(const util::json::Value& a,
                                    const util::json::Value& b,
                                    double threshold_pct) {
  HotspotsResult res;
  res.threshold_pct = threshold_pct;
  std::vector<LinkRun> ra;
  std::vector<LinkRun> rb;
  if (!read_pair(a, b, parse_links_doc, &ra, &rb, &res.error)) return res;

  std::ostringstream out;
  out << "ftdiag hotspots diff (threshold \xC2\xB1";
  put_us(out, threshold_pct);
  out << "% on per-dimension key_hops)\n";
  std::size_t compared = 0;
  for (const LinkRun& run_a : ra) {
    const LinkRun* run_b = nullptr;
    for (const LinkRun& cand : rb)
      if (cand.scenario == run_a.scenario) {
        run_b = &cand;
        break;
      }
    if (run_b == nullptr) continue;  // scenario dropped between runs
    const std::string where =
        run_a.scenario.empty() ? std::string() : run_a.scenario + " ";
    // Union of dimensions: traffic appearing on a new dimension (or
    // vanishing from an old one) is exactly what this gate must catch.
    std::map<int, std::pair<double, double>> merged;
    for (const auto& [d, t] : run_a.dims) merged[d].first = t.key_hops;
    for (const auto& [d, t] : run_b->dims) merged[d].second = t.key_hops;
    merged[-1] = {run_a.total_key_hops, run_b->total_key_hops};  // the total
    for (const auto& [d, kv] : merged) {
      const auto [before, after] = kv;
      if (before == 0.0 && after == 0.0) continue;
      ++compared;
      DimDelta delta;
      delta.scenario = run_a.scenario;
      delta.dim = d;
      delta.before = before;
      delta.after = after;
      delta.delta_pct =
          before > 0.0 ? 100.0 * (after - before) / before : 100.0;
      delta.regression = std::fabs(delta.delta_pct) > threshold_pct;
      if (delta.regression || delta.delta_pct != 0.0) {
        out << "  " << where
            << (d < 0 ? std::string("total") : "dim " + std::to_string(d))
            << ": key_hops ";
        put_us(out, before);
        out << " -> ";
        put_us(out, after);
        out << " (";
        put_pct(out, delta.delta_pct);
        out << ")";
        if (delta.regression) out << " REGRESSION";
        out << "\n";
      }
      if (delta.regression) ++res.regressions;
      res.deltas.push_back(std::move(delta));
    }
  }
  out << "summary: " << res.regressions << " regression(s) beyond \xC2\xB1";
  put_us(out, threshold_pct);
  out << "% across " << compared << " compared counter(s)\n";
  res.ok = true;
  res.text = out.str();
  return res;
}

HotspotsResult hotspots_diff(const std::string& a, const std::string& b,
                             double threshold_pct) {
  return read_text_pair<HotspotsResult>(
      a, b, kExportDoc, [&](const json::Value& da, const json::Value& db) {
        return hotspots_diff(da, db, threshold_pct);
      });
}

// ---------------------------------------------------------------------------
// campaign

namespace {

/// One parsed per-r bucket row of a campaign JSON block.
struct CampaignBucket {
  int r = 0;
  std::uint64_t trials = 0;
  std::uint64_t completed = 0;
  std::uint64_t recovered = 0;
  std::uint64_t degraded = 0;
  double completion_probability = 0.0;
  double mean_slowdown = 0.0;
  double hotspot_p90 = 0.0;
  double detect_latency_p50 = 0.0;
  double salvage_latency_p50 = 0.0;
  double restart_latency_p50 = 0.0;
};

/// Parsed header + buckets of a campaign document.
struct CampaignDoc {
  std::uint64_t n = 0;
  std::uint64_t r_max = 0;
  std::uint64_t scenarios = 0;
  std::uint64_t trials = 0;
  std::uint64_t seed = 0;
  std::string executor;
  /// The outcome rollup in the writer's compact form
  /// (`"completed": 6, "recovered": 5, ...`); empty when absent.
  std::string outcomes;
  std::vector<CampaignBucket> buckets;
};

CampaignDoc parse_campaign_doc(const json::Value& value) {
  const json::Ref doc(value);
  if (doc.get_or("campaign", std::string()) != "fault_mc")
    refuse("not a campaign export: missing \"campaign\": \"fault_mc\"");
  // The campaign reader is exact-version: the bucket keys it relies on
  // changed meaning across versions, so both older and newer files get
  // the versioned refusal rather than zero-filled columns.
  const double sv = doc.get_or("schema_version", 0.0);
  if (sv != kCampaignSchemaMax) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "campaign JSON is schema v%g, this build reads v%g", sv,
                  kCampaignSchemaMax);
    refuse(buf);
  }
  const std::optional<json::Ref> buckets = doc.find("buckets");
  if (!buckets) refuse("campaign JSON without a \"buckets\" array");
  CampaignDoc out;
  for (const json::Ref& b : buckets->items()) {
    CampaignBucket row;
    row.r = static_cast<int>(b["r"].uint64());
    row.trials = b["trials"].uint64();
    row.completed = b["completed"].uint64();
    row.recovered = b["recovered"].uint64();
    row.degraded = b["degraded"].uint64();
    row.completion_probability = b["completion_probability"].number();
    row.mean_slowdown = b["mean_slowdown"].number();
    row.hotspot_p90 = b["hotspot_p90"].number();
    row.detect_latency_p50 = b["detect_latency_p50"].number();
    row.salvage_latency_p50 = b["salvage_latency_p50"].number();
    row.restart_latency_p50 = b["restart_latency_p50"].number();
    out.buckets.push_back(row);
  }
  if (out.buckets.empty())
    refuse("campaign JSON with an empty \"buckets\" array");
  out.n = doc["n"].uint64();
  out.r_max = doc["r_max"].uint64();
  out.scenarios = doc["scenarios"].uint64();
  out.trials = doc["trials"].uint64();
  out.seed = doc["seed"].uint64();
  out.executor = doc["executor"].str();
  if (const std::optional<json::Ref> outcomes = doc.find("outcomes"))
    for (const auto& [name, count] : outcomes->members())
      out.outcomes += (out.outcomes.empty() ? "\"" : ", \"") + name +
                      "\": " + std::to_string(count.uint64());
  return out;
}

}  // namespace

static CampaignCliResult campaign_report(const util::json::Value& json) {
  CampaignCliResult res;
  CampaignDoc doc;
  try {
    doc = parse_campaign_doc(json);
  } catch (const json::Error& e) {
    res.error = e.what();
    return res;
  }

  std::ostringstream out;
  out << "ftdiag campaign: Q_" << doc.n << ", r <= " << doc.r_max << ", "
      << doc.trials << " trial(s) over " << doc.scenarios
      << " scenario(s), seed " << doc.seed << ", " << doc.executor
      << " executor\n";
  if (!doc.outcomes.empty()) out << "  outcomes: " << doc.outcomes << "\n";
  char line[224];
  std::snprintf(line, sizeof line,
                "  %-3s %7s %10s %10s %9s %12s %14s %12s %11s %12s %12s\n",
                "r", "trials", "completed", "recovered", "degraded",
                "P(complete)", "mean_slowdown", "hotspot_p90", "detect_p50",
                "salvage_p50", "restart_p50");
  out << line;
  for (const CampaignBucket& b : doc.buckets) {
    std::snprintf(line, sizeof line,
                  "  %-3d %7ld %10ld %10ld %9ld %12.3f %14.3f %12.3f "
                  "%11.0f %12.0f %12.0f\n",
                  b.r, static_cast<long>(b.trials),
                  static_cast<long>(b.completed),
                  static_cast<long>(b.recovered),
                  static_cast<long>(b.degraded), b.completion_probability,
                  b.mean_slowdown, b.hotspot_p90, b.detect_latency_p50,
                  b.salvage_latency_p50, b.restart_latency_p50);
    out << line;
  }
  for (std::size_t i = 1; i < doc.buckets.size(); ++i)
    if (doc.buckets[i].completion_probability >
        doc.buckets[i - 1].completion_probability)
      res.monotone = false;
  out << "  completion curve: "
      << (res.monotone ? "monotone non-increasing in r"
                       : "NOT monotone (coupling violated?)")
      << "\n";
  res.ok = true;
  res.text = out.str();
  return res;
}

CampaignCliResult campaign_report(const std::string& json) {
  return read_text<CampaignCliResult>(
      json, kCampaignDoc,
      [](const json::Value& doc) { return campaign_report(doc); });
}

static CampaignCliResult campaign_diff(const util::json::Value& a,
                                       const util::json::Value& b,
                                       double threshold_pct) {
  CampaignCliResult res;
  res.threshold_pct = threshold_pct;
  CampaignDoc da;
  CampaignDoc db;
  if (!read_pair(a, b, parse_campaign_doc, &da, &db, &res.error)) return res;

  std::ostringstream out;
  out << "ftdiag campaign diff (threshold \xC2\xB1";
  put_us(out, threshold_pct);
  out << "% on P(complete) points and mean_slowdown)\n";
  std::size_t compared = 0;
  for (const CampaignBucket& ba : da.buckets) {
    const CampaignBucket* bb = nullptr;
    for (const CampaignBucket& cand : db.buckets)
      if (cand.r == ba.r) {
        bb = &cand;
        break;
      }
    if (bb == nullptr) continue;  // bucket dropped between campaigns
    ++compared;
    BucketDelta d;
    d.r = ba.r;
    d.prob_before = ba.completion_probability;
    d.prob_after = bb->completion_probability;
    d.prob_delta_pts =
        100.0 * (bb->completion_probability - ba.completion_probability);
    d.slowdown_before = ba.mean_slowdown;
    d.slowdown_after = bb->mean_slowdown;
    d.slowdown_delta_pct =
        ba.mean_slowdown > 0.0
            ? 100.0 * (bb->mean_slowdown - ba.mean_slowdown) /
                  ba.mean_slowdown
            : (bb->mean_slowdown != 0.0 ? 100.0 : 0.0);
    d.regression = std::fabs(d.prob_delta_pts) > threshold_pct ||
                   std::fabs(d.slowdown_delta_pct) > threshold_pct;
    if (d.regression || d.prob_delta_pts != 0.0 ||
        d.slowdown_delta_pct != 0.0) {
      char line[200];
      std::snprintf(line, sizeof line,
                    "  r=%d: P(complete) %.3f -> %.3f (%+.1f pts), "
                    "mean_slowdown %.3f -> %.3f (%+.1f%%)%s\n",
                    d.r, d.prob_before, d.prob_after, d.prob_delta_pts,
                    d.slowdown_before, d.slowdown_after,
                    d.slowdown_delta_pct,
                    d.regression ? " REGRESSION" : "");
      out << line;
    }
    if (d.regression) ++res.regressions;
    res.deltas.push_back(d);
  }
  out << "summary: " << res.regressions << " regression(s) beyond \xC2\xB1";
  put_us(out, threshold_pct);
  out << "% across " << compared << " compared bucket(s)\n";
  res.ok = true;
  res.text = out.str();
  return res;
}

CampaignCliResult campaign_diff(const std::string& a, const std::string& b,
                                double threshold_pct) {
  return read_text_pair<CampaignCliResult>(
      a, b, kCampaignDoc, [&](const json::Value& da, const json::Value& db) {
        return campaign_diff(da, db, threshold_pct);
      });
}

// ---------------------------------------------------------------------------
// history

namespace {

/// Median of an unsorted sample set: sorted copy, average of the two
/// middles when even. Deterministic (no interpolation beyond the
/// midpoint average) and robust to a single outlier run.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  if (v.size() % 2 == 1) return v[mid];
  return 0.5 * (v[mid - 1] + v[mid]);
}

/// Eight-step block sparkline (U+2581..U+2588) of `v` scaled min..max;
/// a flat series renders as the middle block.
std::string sparkline(const std::vector<double>& v) {
  double lo = v.empty() ? 0.0 : v[0];
  double hi = lo;
  for (const double x : v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  std::string out;
  for (const double x : v) {
    int level = 3;  // flat series: middle block
    if (hi > lo) {
      level = static_cast<int>(8.0 * (x - lo) / (hi - lo));
      level = std::min(level, 7);
    }
    out += "\xE2\x96";
    out += static_cast<char>(0x81 + level);
  }
  return out;
}

}  // namespace

HistoryResult history_trends(const std::string& jsonl,
                             const std::string& metric, std::size_t last_k,
                             double threshold_pct) {
  HistoryResult res;
  res.metric = metric;
  res.last_k = last_k;
  res.threshold_pct = threshold_pct;
  if (metric != "makespan" && metric != "wall_ns" && metric != "comparisons") {
    res.error = "unknown history metric \"" + metric +
                "\" (makespan, wall_ns, comparisons)";
    return res;
  }
  if (last_k == 0) {
    res.error = "--last must be at least 1";
    return res;
  }

  // One sample group per (scenario, mode, build), in first-appearance
  // order: smoke vs full runs (different problem sizes) and release vs
  // debug builds (different wall clocks) must never share a trend line.
  struct Group {
    std::string scenario, mode, build;
    std::vector<double> samples;  ///< file order == time order
  };
  std::vector<Group> groups;
  std::map<std::string, std::size_t> index;

  std::size_t begin = 0;
  while (begin < jsonl.size()) {
    std::size_t nl = jsonl.find('\n', begin);
    if (nl == std::string::npos) nl = jsonl.size();
    const std::string line = jsonl.substr(begin, nl - begin);
    begin = nl + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    // A well-formed history line is one JSON object holding a
    // scenarios array; anything else (a crashed bench run, a partial
    // append, editor damage) is skipped and counted, never fatal —
    // history files are append-only and must survive one bad writer.
    struct Sample {
      std::string name;
      double value;
    };
    std::string mode;
    std::string build;
    std::vector<Sample> samples;
    try {
      const json::Value value = json::parse(line);
      const json::Ref doc(value);
      mode = doc.get_or("mode", std::string());
      build = doc.get_or("build", std::string());
      for (const json::Ref& sc : doc["scenarios"].items()) {
        const std::optional<json::Ref> name = sc.find("name");
        const std::optional<json::Ref> sample = sc.find(metric);
        if (name && sample && !name->str().empty())
          samples.push_back({name->str(), sample->number()});
      }
    } catch (const json::Error&) {
      ++res.skipped_lines;
      continue;
    }
    if (samples.empty()) {
      ++res.skipped_lines;  // well-formed JSON but no usable sample
      continue;
    }
    ++res.lines;
    for (Sample& s : samples) {
      const std::string key = s.name + "\x1f" + mode + "\x1f" + build;
      const auto [it, fresh] = index.emplace(key, groups.size());
      if (fresh) groups.push_back({s.name, mode, build, {}});
      groups[it->second].samples.push_back(s.value);
    }
  }
  if (res.lines == 0) {
    res.error = "no well-formed history lines in file";
    return res;
  }

  std::ostringstream out;
  out << "ftdiag history (" << metric << ", last-" << last_k
      << " median vs baseline median, threshold \xC2\xB1";
  put_us(out, threshold_pct);
  out << "%)\n";
  if (res.skipped_lines > 0)
    out << "  warning: skipped " << res.skipped_lines
        << " corrupt history line(s)\n";

  for (const Group& g : groups) {
    const std::size_t n = g.samples.size();
    if (n < 2) {
      ++res.short_groups;  // one sample: nothing to trend against
      continue;
    }
    // Clamp the window so at least one sample remains as baseline.
    const std::size_t k = std::min(last_k, n - 1);
    HistoryTrend t;
    t.scenario = g.scenario;
    t.mode = g.mode;
    t.build = g.build;
    t.entries = n;
    t.baseline = median({g.samples.begin(),
                         g.samples.begin() + static_cast<std::ptrdiff_t>(
                                                 n - k)});
    t.recent = median({g.samples.end() - static_cast<std::ptrdiff_t>(k),
                       g.samples.end()});
    t.drift_pct = t.baseline != 0.0
                      ? 100.0 * (t.recent - t.baseline) / t.baseline
                      : (t.recent != 0.0 ? 100.0 : 0.0);
    t.regression = std::fabs(t.drift_pct) > threshold_pct;
    t.sparkline = sparkline(g.samples);
    out << "  " << t.scenario << " [" << t.mode << "/" << t.build
        << "] n=" << n << " baseline ";
    put_us(out, t.baseline);
    out << " recent ";
    put_us(out, t.recent);
    out << " (";
    put_pct(out, t.drift_pct);
    out << ") " << t.sparkline;
    if (t.regression) out << " REGRESSION";
    out << "\n";
    if (t.regression) ++res.regressions;
    res.trends.push_back(std::move(t));
  }
  out << "summary: " << res.regressions << " regression(s) beyond \xC2\xB1";
  put_us(out, threshold_pct);
  out << "% across " << res.trends.size() << " trend(s)";
  if (res.short_groups > 0)
    out << "; " << res.short_groups << " group(s) too short to trend";
  out << "\n";
  res.ok = true;
  res.text = out.str();
  return res;
}

// ---------------------------------------------------------------------------
// lineage

namespace {

/// One row of the metrics export's per-key lineage detail.
struct LineageKeyRow {
  std::uint64_t id = 0;
  sim::Key value = 0;
  std::uint64_t origin = 0;
  std::uint64_t holder = 0;
  bool dummy = false;
  bool retired = false;
  bool lost = false;
  bool salvaged = false;
  std::int64_t witness = -1;
  std::int64_t witness_step = -1;
  std::uint64_t moves = 0;
  std::uint64_t hops = 0;
  std::string trail;
};

LineageKeyRow read_key_row(const json::Ref& obj) {
  LineageKeyRow row;
  row.id = obj["id"].uint64();
  row.value = obj["value"].int64();
  row.origin = obj["origin"].uint64();
  row.holder = obj["holder"].uint64();
  row.dummy = obj["dummy"].boolean();
  row.retired = obj["retired"].boolean();
  row.lost = obj["lost"].boolean();
  row.salvaged = obj["salvaged"].boolean();
  row.witness = obj["witness"].int64();
  row.witness_step = obj["witness_step"].int64();
  row.moves = obj["moves"].uint64();
  row.hops = obj["hops"].uint64();
  row.trail = obj["trail"].str();
  return row;
}

/// A key value as the reports print it: exact at any magnitude, in the
/// "%.1f" shape the rest of the report uses ("1234.0").
void put_key(std::ostream& os, sim::Key v) { os << v << ".0"; }

/// Decode one `<code>,node,peer,step,phase` trail event (the codec of
/// sim::lineage_event_code + sim::write_metrics_json) into a prose line.
std::string decode_trail_event(const std::string& ev) {
  std::vector<std::string> f;
  std::size_t begin = 0;
  while (f.size() < 5) {
    const std::size_t comma = ev.find(',', begin);
    if (comma == std::string::npos) {
      f.push_back(ev.substr(begin));
      break;
    }
    f.push_back(ev.substr(begin, comma - begin));
    begin = comma + 1;
  }
  if (f.size() < 5 || f[0].size() != 1) return "malformed event \"" + ev + "\"";
  const std::string& node = f[1];
  const std::string& peer = f[2];
  const std::string& step = f[3];
  const std::string& phase = f[4];
  switch (f[0][0]) {
    case 'A': return "assigned to node " + node + " [" + phase + "]";
    case 'M':
      return "moved to node " + node + " from node " + peer + " at tag " +
             step + " [" + phase + "]";
    case 'S':
      return "salvaged to node " + node + " (witness node " + peer +
             ", step " + step + ") [" + phase + "]";
    case 'R':
      return "re-scattered to node " + node + " from node " + peer + " [" +
             phase + "]";
    case 'T': return "retired at node " + node + " [" + phase + "]";
    case 'L': return "LOST at node " + node + " [" + phase + "]";
    default: return "unknown event \"" + ev + "\"";
  }
}

}  // namespace

static LineageCliResult lineage_report(const util::json::Value& metrics,
                                       long key, std::size_t top_n,
                                       bool audit_only) {
  LineageCliResult res;
  struct LostRow {
    std::uint64_t id = 0;
    sim::Key value = 0;
    std::uint64_t last_holder = 0;
    std::string phase;
  };
  struct DupRow {
    sim::Key value = 0;
    std::uint64_t extra = 0;
  };
  std::uint64_t assigned = 0;
  std::uint64_t dummies = 0;
  std::uint64_t dropped = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t untracked = 0;
  std::uint64_t salvaged = 0;
  std::uint64_t witnessed = 0;
  std::uint64_t keys_emitted = 0;
  std::vector<LostRow> lost_rows;
  std::vector<DupRow> dup_rows;
  std::vector<LineageKeyRow> rows;
  try {
    const json::Ref doc(metrics);
    check_schema_ceiling(doc, "metrics JSON", kMetricsSchemaMax);
    const std::optional<json::Ref> block = doc.find("lineage");
    if (!block)
      refuse("metrics JSON without a \"lineage\" block (schema v6 required)");
    if (!(*block)["enabled"].boolean())
      refuse("run recorded no lineage (record_lineage off)");
    const json::Ref& lin = *block;
    assigned = lin["assigned"].uint64();
    dummies = lin["dummies"].uint64();
    dropped = lin["dropped_events"].uint64();
    mismatches = lin["resolve_mismatches"].uint64();
    untracked = lin["untracked_total"].uint64();
    keys_emitted = lin["keys_emitted"].uint64();
    const json::Ref audit = lin["audit"];
    res.audit_checked = audit["checked"].boolean();
    res.audit_ok = audit["ok"].boolean();
    salvaged = audit["salvaged"].uint64();
    witnessed = audit["witnessed_salvaged"].uint64();
    for (const json::Ref& r : audit["lost"].items())
      lost_rows.push_back({r["id"].uint64(), r["value"].int64(),
                           r["last_holder"].uint64(), r["phase"].str()});
    for (const json::Ref& r : audit["duplicated"].items())
      dup_rows.push_back({r["value"].int64(), r["extra"].uint64()});
    // Per-key detail (needed for --key and --top).
    for (const json::Ref& r : lin["keys"].items())
      rows.push_back(read_key_row(r));
  } catch (const json::Error& e) {
    res.error = e.what();
    return res;
  }
  res.lost = lost_rows.size();
  res.duplicated = dup_rows.size();

  std::ostringstream out;
  const auto put_verdict = [&] {
    if (!res.audit_checked)
      out << "  audit: NOT RUN (gather did not complete)\n";
    else if (res.audit_ok)
      out << "  audit: OK — every input key in the output exactly once\n";
    else
      out << "  audit: VIOLATED — " << res.lost << " lost, "
          << res.duplicated << " duplicated\n";
    for (const LostRow& r : lost_rows) {
      out << "    LOST id " << r.id << " value ";
      put_key(out, r.value);
      out << " last holder node " << r.last_holder << " [" << r.phase
          << "]\n";
    }
    for (const DupRow& r : dup_rows) {
      out << "    DUPLICATED value ";
      put_key(out, r.value);
      out << " x" << (r.extra + 1) << " (" << r.extra << " extra)\n";
    }
  };

  if (key >= 0) {
    const LineageKeyRow* row = nullptr;
    for (const LineageKeyRow& r : rows)
      if (r.id == static_cast<std::uint64_t>(key)) {
        row = &r;
        break;
      }
    if (row == nullptr) {
      res.error = "no key with id " + std::to_string(key) +
                  " in the per-key detail (" + std::to_string(rows.size()) +
                  " emitted; the export caps detail at " +
                  std::to_string(keys_emitted) +
                  " keys)";
      return res;
    }
    out << "ftdiag lineage: key id " << row->id << " value ";
    put_key(out, row->value);
    out << "\n  origin node " << row->origin << " -> final holder node "
        << row->holder << "; " << row->moves
        << " custody move(s), " << row->hops
        << " link hop(s)\n";
    if (row->dummy)
      out << "  dummy padding key" << (row->retired ? " (retired)" : "")
          << "\n";
    if (row->lost) out << "  LOST in custody\n";
    if (row->salvaged) out << "  salvaged off a dead node\n";
    if (row->witness >= 0)
      out << "  freshest witness: node " << row->witness << " at step "
          << row->witness_step << "\n";
    out << "  custody trail:\n";
    std::size_t begin = 0;
    const std::string& trail = row->trail;
    while (begin < trail.size()) {
      std::size_t semi = trail.find(';', begin);
      if (semi == std::string::npos) semi = trail.size();
      out << "    " << decode_trail_event(trail.substr(begin, semi - begin))
          << "\n";
      begin = semi + 1;
    }
    res.ok = true;
    res.text = out.str();
    return res;
  }

  if (top_n > 0) {
    std::stable_sort(rows.begin(), rows.end(),
                     [](const LineageKeyRow& a, const LineageKeyRow& b) {
                       return a.hops > b.hops;
                     });
    out << "ftdiag lineage: top " << std::min(top_n, rows.size())
        << " traveler(s) of " << rows.size() << " emitted key(s)\n";
    for (std::size_t i = 0; i < rows.size() && i < top_n; ++i) {
      const LineageKeyRow& r = rows[i];
      out << "  id " << r.id << " value ";
      put_key(out, r.value);
      out << ": " << r.hops << " hop(s), "
          << r.moves << " move(s), node " << r.origin
          << " -> node " << r.holder << (r.salvaged ? " [salvaged]" : "")
          << "\n";
    }
    res.ok = true;
    res.text = out.str();
    return res;
  }

  if (audit_only) {
    out << "ftdiag lineage audit\n";
    put_verdict();
    res.ok = true;
    res.text = out.str();
    return res;
  }

  out << "ftdiag lineage: " << assigned << " id(s) assigned (" << dummies
      << " dummy), " << rows.size() << " in per-key detail\n";
  put_verdict();
  out << "  salvage: " << salvaged << " key(s) salvaged, " << witnessed
      << " through a recorded witness\n";
  out << "  hops without a custodian id (control/witness/fan-out words): "
      << untracked << "\n";
  if (mismatches != 0)
    out << "  warning: " << mismatches << " resolve mismatch(es)\n";
  if (dropped != 0)
    out << "  warning: " << dropped
        << " chain event(s) dropped past the per-key cap\n";
  std::stable_sort(rows.begin(), rows.end(),
                   [](const LineageKeyRow& a, const LineageKeyRow& b) {
                     return a.hops > b.hops;
                   });
  const std::size_t shown = std::min<std::size_t>(5, rows.size());
  if (shown > 0) out << "  top travelers:\n";
  for (std::size_t i = 0; i < shown; ++i) {
    const LineageKeyRow& r = rows[i];
    out << "    id " << r.id << " value ";
    put_key(out, r.value);
    out << ": " << r.hops << " hop(s), "
        << r.moves << " move(s)\n";
  }
  res.ok = true;
  res.text = out.str();
  return res;
}

LineageCliResult lineage_report(const std::string& json, long key,
                                std::size_t top_n, bool audit_only) {
  return read_text<LineageCliResult>(json, kLineageDoc,
                                     [&](const json::Value& doc) {
                                       return lineage_report(doc, key, top_n,
                                                             audit_only);
                                     });
}

// ---------------------------------------------------------------------------
// stuck

static StuckResult stuck_report(const util::json::Value& dump) {
  StuckResult res;
  std::string policy;
  std::uint64_t deadline = 0;
  std::uint64_t effective = 0;
  std::uint64_t interval = 0;
  std::uint64_t stall = 0;
  std::string root_cause;
  std::string stalled;
  std::string host;
  try {
    const json::Ref doc(dump);
    if (!doc.get_or("watchdog_dump", false))
      refuse(
          "not a watchdog dump (missing \"watchdog_dump\" marker; expected "
          "sim::write_watchdog_dump output)");
    check_schema_ceiling(doc, "watchdog JSON", kWatchdogSchemaMax);
    res.origin = doc.get_or("origin", std::string());
    if (res.origin.empty()) res.origin = "machine";
    policy = doc.get_or("policy", std::string());
    res.trips = doc["trips"].uint64();
    res.near_misses = doc["near_misses"].uint64();
    deadline = doc["deadline_ms"].uint64();
    effective = doc["effective_deadline_ms"].uint64();
    interval = doc["interval_ms"].uint64();
    stall = doc["stall_ms"].uint64();
    const std::optional<json::Ref> beats = doc.find("heartbeats");
    if (!beats) refuse("watchdog dump without a \"heartbeats\" array");
    for (const json::Ref& row : beats->items())
      res.slots.push_back({row["slot"].str(), row["beats"].uint64(),
                           row["age_ms"].uint64(), row["activity"].str(),
                           row["terminal"].boolean()});
    // The replayed Diagnosis, when the dump carries one: the root cause
    // in protocol terms, ahead of the raw heartbeat evidence.
    if (const std::optional<json::Ref> diag = doc.find("diagnosis")) {
      root_cause = diag->get_or("summary", std::string());
      if (const std::optional<json::Ref> nodes = diag->find("stalled")) {
        for (const json::Ref& node : nodes->items())
          stalled += (stalled.empty() ? "" : ", ") +
                     std::to_string(node.uint64());
        if (!stalled.empty())
          stalled = "[" + stalled + "] in phase " +
                    diag->get_or("root_phase", std::string());
      }
    }
    if (const std::optional<json::Ref> hp = doc.find("host_profile"))
      host = std::to_string(hp->get_or("shards", std::uint64_t{0})) +
             " shard(s), " +
             std::to_string(hp->get_or("tasks_resumed", std::uint64_t{0})) +
             " task(s) resumed, " +
             std::to_string(
                 hp->get_or("quiescence_checks", std::uint64_t{0})) +
             " quiescence check(s)";
  } catch (const json::Error& e) {
    res.error = e.what();
    return res;
  }
  // Culprit-first ordering: live slots by silence, retired slots last.
  std::stable_sort(res.slots.begin(), res.slots.end(),
                   [](const StuckSlot& a, const StuckSlot& b) {
                     if (a.terminal != b.terminal) return !a.terminal;
                     return a.age_ms > b.age_ms;
                   });

  std::ostringstream out;
  out << "ftdiag stuck: " << res.origin << " watchdog dump ("
      << (policy.empty() ? "?" : policy) << " policy)\n";
  out << "  trips: " << res.trips << ", near misses: " << res.near_misses
      << "\n";
  out << "  silent for " << stall << " ms (deadline " << deadline
      << " ms, effective " << effective << " ms, polled every " << interval
      << " ms)\n";

  if (!root_cause.empty()) out << "  root cause: " << root_cause << "\n";
  if (!stalled.empty()) out << "  stalled nodes: " << stalled << "\n";

  if (res.slots.empty()) {
    out << "  heartbeats: none recorded\n";
  } else {
    out << "  heartbeats (most silent first):\n";
    const StuckSlot* culprit = nullptr;
    for (const StuckSlot& s : res.slots) {
      out << "    " << s.slot << ": " << s.beats << " beat(s), silent "
          << s.age_ms << " ms, "
          << (s.terminal ? std::string("terminal")
                         : "activity " + s.activity)
          << "\n";
      if (culprit == nullptr && !s.terminal) culprit = &s;
    }
    if (culprit != nullptr)
      out << "  most silent: " << culprit->slot << " (" << culprit->age_ms
          << " ms without a heartbeat, activity " << culprit->activity
          << ")\n";
    else
      out << "  most silent: none (every slot retired in order)\n";
  }

  if (!host.empty()) out << "  host: " << host << "\n";

  out << "  verdict: "
      << (res.trips > 0
              ? "STUCK (watchdog aborted the run)"
              : res.near_misses > 0
                    ? "near miss only (record policy, run continued)"
                    : "no breach recorded")
      << "\n";
  res.ok = true;
  res.text = out.str();
  return res;
}

StuckResult stuck_report(const std::string& json) {
  return read_text<StuckResult>(
      json, kDumpDoc, [](const json::Value& doc) { return stuck_report(doc); });
}

// ---------------------------------------------------------------------------
// CLI

namespace {

/// Parses the file at `path` for `ftdiag cmd`; on failure prints the
/// refusal (file path, byte offset, what was expected) and returns false.
bool load(const char* cmd, const std::string& path, const char* expect,
          json::Value* doc, std::ostream& err) {
  try {
    *doc = json::parse_file(path);
    return true;
  } catch (const json::Error& e) {
    err << "ftdiag " << cmd << ": " << parse_failure(e.what(), expect)
        << "\n";
    return false;
  }
}

int usage(std::ostream& err) {
  err << "usage: ftdiag diff <a.json> <b.json> [--threshold PCT]\n"
         "       ftdiag explain <trace.json>\n"
         "       ftdiag hotspots <file.json> [--top K]\n"
         "       ftdiag hotspots <a.json> <b.json> [--threshold PCT]\n"
         "       ftdiag campaign <report.json>\n"
         "       ftdiag campaign <a.json> <b.json> [--threshold PCT]\n"
         "       ftdiag history <history.jsonl> "
         "[--metric makespan|wall_ns|comparisons]\n"
         "                      [--last K] [--threshold PCT]\n"
         "       ftdiag lineage <metrics.json> [--key ID | --top N | "
         "--audit]\n"
         "       ftdiag stuck <dump.json>\n"
         "       ftdiag --version\n"
         "supported schemas:";
  for (const util::SchemaEntry& e : util::kSchemaTable)
    err << " " << e.format << " JSON " << (e.exact ? "v" : "up to v")
        << e.version << ",";
  err << "\n                   bench history JSONL\n"
         "exit codes: 0 clean, 1 regression beyond threshold "
         "(lineage: audit violated,\n"
         "            stuck: the dump records an abort trip), "
         "2 usage/parse error\n";
  return 2;
}

}  // namespace

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  if (argc < 2) return usage(err);
  const std::string cmd = argv[1];
  const char* c = cmd.c_str();

  // A reader's text on success (then `code`), its refusal on failure (2).
  // `where` prefixes the refusal: the file of a one-file report; diffs
  // name "first file"/"second file" themselves.
  const auto emit = [&](const std::string& where, const auto& res,
                        int code) {
    if (!res.ok) {
      err << "ftdiag " << cmd << ": " << where << res.error << "\n";
      return 2;
    }
    out << res.text;
    return code;
  };
  // Optional `--threshold PCT` as argv[at], argv[at + 1].
  const auto threshold_at = [&](int at, double* pct) {
    if (argc <= at) return true;
    char* end = nullptr;
    *pct = std::strtod(argv[at + 1], &end);
    return std::string(argv[at]) == "--threshold" && end != argv[at + 1] &&
           *pct >= 0.0;
  };
  json::Value da;
  json::Value db;
  const auto load2 = [&](const char* expect) {
    return load(c, argv[2], expect, &da, err) &&
           load(c, argv[3], expect, &db, err);
  };
  const std::string first = argc > 2 ? std::string(argv[2]) + ": " : "";

  if (cmd == "--version" || cmd == "version") {
    out << "ftdiag schemas:\n";
    for (const util::SchemaEntry& e : util::kSchemaTable)
      out << "  " << e.format << " JSON: "
          << (e.exact ? "exactly v" : "up to v") << e.version << "\n";
    return 0;
  }

  if (cmd == "explain") {
    if (argc != 3) return usage(err);
    if (!load(c, argv[2], kTraceDoc, &da, err)) return 2;
    return emit(first, explain_trace_json(da), 0);
  }

  if (cmd == "diff") {
    double threshold = 20.0;
    if ((argc != 4 && argc != 6) || !threshold_at(4, &threshold))
      return usage(err);
    if (!load2(kExportDoc)) return 2;
    const DiffResult res = diff_json(da, db, threshold);
    return emit("", res, res.regressions > 0 ? 1 : 0);
  }

  if (cmd == "hotspots") {
    // One file = report mode (optionally --top K); two files = diff mode
    // (optionally --threshold PCT).
    if (argc == 3 || (argc == 5 && std::string(argv[3]) == "--top")) {
      std::size_t top_k = 0;
      if (argc == 5) {
        char* end = nullptr;
        const long k = std::strtol(argv[4], &end, 10);
        if (end == argv[4] || k <= 0) return usage(err);
        top_k = static_cast<std::size_t>(k);
      }
      if (!load(c, argv[2], kExportDoc, &da, err)) return 2;
      return emit(first, hotspots_report(da, top_k), 0);
    }
    double threshold = 20.0;
    if ((argc != 4 && argc != 6) || !threshold_at(4, &threshold))
      return usage(err);
    if (!load2(kExportDoc)) return 2;
    const HotspotsResult res = hotspots_diff(da, db, threshold);
    return emit("", res, res.regressions > 0 ? 1 : 0);
  }

  if (cmd == "campaign") {
    // One file = summary report; two files = reliability-curve diff
    // (optionally --threshold PCT; default 0 — campaigns are
    // deterministic, so same-spec reports must match exactly).
    if (argc == 3) {
      if (!load(c, argv[2], kCampaignDoc, &da, err)) return 2;
      return emit(first, campaign_report(da), 0);
    }
    double threshold = 0.0;
    if ((argc != 4 && argc != 6) || !threshold_at(4, &threshold))
      return usage(err);
    if (!load2(kCampaignDoc)) return 2;
    const CampaignCliResult res = campaign_diff(da, db, threshold);
    return emit("", res, res.regressions > 0 ? 1 : 0);
  }

  if (cmd == "history") {
    if (argc < 3) return usage(err);
    std::string metric = "makespan";
    std::size_t last_k = 3;
    double threshold = 20.0;
    for (int i = 3; i < argc; i += 2) {
      if (i + 1 >= argc) return usage(err);
      const std::string flag = argv[i];
      const char* val = argv[i + 1];
      if (flag == "--metric") {
        metric = val;
      } else if (flag == "--last") {
        char* end = nullptr;
        const long k = std::strtol(val, &end, 10);
        if (end == val || k <= 0) return usage(err);
        last_k = static_cast<std::size_t>(k);
      } else if (!threshold_at(i, &threshold)) {
        return usage(err);
      }
    }
    std::string text;
    try {
      text = json::load_text(argv[2]);
    } catch (const json::Error& e) {
      err << "ftdiag history: " << e.what() << "\n";
      return 2;
    }
    const HistoryResult res = history_trends(text, metric, last_k, threshold);
    return emit(first, res, res.regressions > 0 ? 1 : 0);
  }

  if (cmd == "lineage") {
    if (argc < 3) return usage(err);
    long key = -1;
    std::size_t top_n = 0;
    bool audit_only = false;
    int i = 3;
    while (i < argc) {
      const std::string flag = argv[i];
      if (flag == "--audit") {
        audit_only = true;
        i += 1;
      } else if (flag == "--key" && i + 1 < argc) {
        char* end = nullptr;
        key = std::strtol(argv[i + 1], &end, 10);
        if (end == argv[i + 1] || key < 0) return usage(err);
        i += 2;
      } else if (flag == "--top" && i + 1 < argc) {
        char* end = nullptr;
        const long n = std::strtol(argv[i + 1], &end, 10);
        if (end == argv[i + 1] || n <= 0) return usage(err);
        top_n = static_cast<std::size_t>(n);
        i += 2;
      } else {
        return usage(err);
      }
    }
    // The three modes are exclusive: each picks its own rendering.
    if ((key >= 0 ? 1 : 0) + (top_n > 0 ? 1 : 0) + (audit_only ? 1 : 0) > 1)
      return usage(err);
    if (!load(c, argv[2], kLineageDoc, &da, err)) return 2;
    const LineageCliResult res = lineage_report(da, key, top_n, audit_only);
    return emit(first, res, (res.audit_checked && !res.audit_ok) ? 1 : 0);
  }

  if (cmd == "stuck") {
    if (argc != 3) return usage(err);
    if (!load(c, argv[2], kDumpDoc, &da, err)) return 2;
    const StuckResult res = stuck_report(da);
    return emit(first, res, res.trips > 0 ? 1 : 0);
  }

  return usage(err);
}

}  // namespace ftsort::tools
