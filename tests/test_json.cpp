// util/json: the strict reader every consumer of the repo's exports uses.
// The Json suite pins the grammar (what parses, what is refused and at
// which byte), exact integers, and the path-naming typed accessors.
// JsonWriters and JsonCheckedIn parse every writer's output and every
// checked-in JSON file strictly: a failure there is a writer bug, never a
// reason to make the parser lenient.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "core/ft_sorter.hpp"
#include "fault/scenario.hpp"
#include "sim/exporters.hpp"
#include "sim/watchdog.hpp"
#include "sort/distribution.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace ftsort {
namespace {

namespace json = util::json;

/// The parse error for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    json::parse(text);
  } catch (const json::Error& e) {
    return e.what();
  }
  return {};
}

TEST(Json, ParsesEveryKindAndKeepsKeyOrder) {
  const json::Value v = json::parse(
      " {\"z\": null, \"a\": [true, false, -0.5e1, \"s\"], \"m\": {}} \n");
  ASSERT_EQ(v.kind(), json::Value::Kind::Object);
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[1].first, "a");
  EXPECT_EQ(v.members()[2].first, "m");
  EXPECT_EQ(v.members()[0].second.kind(), json::Value::Kind::Null);
  const json::Value& a = *v.find("a");
  ASSERT_EQ(a.items().size(), 4u);
  EXPECT_TRUE(a.items()[0].boolean());
  EXPECT_FALSE(a.items()[1].boolean());
  EXPECT_DOUBLE_EQ(a.items()[2].number(), -5.0);
  EXPECT_FALSE(a.items()[2].is_int64());
  EXPECT_EQ(a.items()[3].str(), "s");
  EXPECT_EQ(v.find("m")->kind(), json::Value::Kind::Object);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, IntegerLiteralsStayExact) {
  const json::Value v = json::parse(
      "[9007199254740993, -9223372036854775808, 18446744073709551615, "
      "18446744073709551616, 3.0]");
  const std::vector<json::Value>& n = v.items();
  ASSERT_TRUE(n[0].is_uint64());
  ASSERT_TRUE(n[0].is_int64());
  EXPECT_EQ(n[0].uint64(), 9007199254740993ULL);  // 2^53 + 1
  EXPECT_EQ(n[0].int64(), 9007199254740993LL);
  ASSERT_TRUE(n[1].is_int64());
  EXPECT_FALSE(n[1].is_uint64());
  EXPECT_EQ(n[1].int64(), INT64_MIN);
  ASSERT_TRUE(n[2].is_uint64());
  EXPECT_FALSE(n[2].is_int64());
  EXPECT_EQ(n[2].uint64(), UINT64_MAX);
  // Past uint64 the literal is a double only; a fraction is never exact.
  EXPECT_FALSE(n[3].is_uint64());
  EXPECT_DOUBLE_EQ(n[3].number(), 18446744073709551616.0);
  EXPECT_FALSE(n[4].is_int64());
  EXPECT_DOUBLE_EQ(n[4].number(), 3.0);
}

TEST(Json, DecodesStringEscapes) {
  const json::Value v = json::parse(
      R"(["a\"b\\c\/d\b\f\n\r\t", "\u00e9\u20ac", "\ud83d\ude00", "é"])");
  EXPECT_EQ(v.items()[0].str(), "a\"b\\c/d\b\f\n\r\t");
  EXPECT_EQ(v.items()[1].str(), "\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(v.items()[2].str(), "\xF0\x9F\x98\x80");
  EXPECT_EQ(v.items()[3].str(), "\xC3\xA9");
}

TEST(Json, RefusesMalformedTextWithTheByteOffset) {
  const struct {
    const char* text;
    const char* error;
  } cases[] = {
      {"", "byte 0: unexpected end of input"},
      {"   ", "byte 3: unexpected end of input"},
      {"1 2", "byte 2: trailing bytes"},
      {"{} x", "byte 3: trailing bytes"},
      {"[1,]", "byte 3: trailing comma in array"},
      {"{\"a\": 1,}", "byte 8: trailing comma in object"},
      {"{\"a\": 1, \"a\": 2}", "byte 9: duplicate key \"a\""},
      {"NaN", "byte 0: expected a value"},
      {"[Infinity]", "byte 1: expected a value"},
      {"-Infinity", "byte 0: expected a value"},
      {"01", "byte 1: leading zero"},
      {"+1", "byte 0: expected a value"},
      {".5", "byte 0: expected a value"},
      {"1.", "byte 2: expected a digit after '.'"},
      {"1e", "byte 2: expected a digit in exponent"},
      {"1e999", "byte 0: number out of range"},
      {"\"a\tb\"", "byte 2: raw control character"},
      {"\"a\\x\"", "byte 2: invalid escape"},
      {"\"\\ud800\"", "byte 7: lone high surrogate"},
      {"\"\\udc00\"", "byte 7: lone low surrogate"},
      {"\"\xff\"", "byte 1: invalid UTF-8"},
      {"\"\xc0\xaf\"", "byte 1: invalid UTF-8"},
      {"\"abc", "byte 4: unexpected end of input in string"},
      {"{\"a\" 1}", "byte 5: expected ':'"},
      {"{1: 2}", "byte 1: expected a string key"},
      {"[1 2]", "byte 3: expected ']' or ','"},
      {"tru", "byte 0: invalid literal"},
      {"nul", "byte 0: invalid literal"},
  };
  for (const auto& c : cases) {
    const std::string err = parse_error(c.text);
    EXPECT_EQ(err.rfind(c.error, 0), 0u)
        << "input <" << c.text << "> gave <" << err << ">";
  }
}

TEST(Json, RefusesDuplicateKeysInWideObjects) {
  // Past the linear-scan size the duplicate check switches to a set.
  std::string text = "{";
  for (int i = 0; i < 40; ++i) text += "\"k" + std::to_string(i) + "\": 0, ";
  EXPECT_NE(parse_error(text + "\"k39\": 1}").find("duplicate key \"k39\""),
            std::string::npos);
  EXPECT_NE(parse_error(text + "\"k3\": 1}").find("duplicate key \"k3\""),
            std::string::npos);
  EXPECT_EQ(parse_error(text + "\"k40\": 1}"), "");
  // The same key in two different objects is not a duplicate.
  EXPECT_EQ(parse_error(R"({"a": {"x": 1}, "b": {"x": 2}})"), "");
}

TEST(Json, DepthIsBoundedSoACraftedFileCannotOverflowTheStack) {
  const std::string bomb(100'000, '[');
  EXPECT_NE(parse_error(bomb).find("nesting deeper than"), std::string::npos);
  const std::string objects = [] {
    std::string s;
    for (int i = 0; i < 100'000; ++i) s += "{\"a\":";
    return s;
  }();
  EXPECT_NE(parse_error(objects).find("nesting deeper than"),
            std::string::npos);
  const std::size_t max = json::kMaxDepth;
  EXPECT_EQ(parse_error(std::string(max, '[') + std::string(max, ']')), "");
  EXPECT_NE(parse_error(std::string(max + 1, '[') + std::string(max + 1, ']')),
            "");
}

TEST(Json, TypedAccessNamesThePathAndTheExpectedType) {
  const json::Value v =
      json::parse(R"({"a": {"b": [1, "x", -2, 2.5]}, "t": true})");
  const json::Ref root(v);
  EXPECT_EQ(root["a"]["b"].item(0).uint64(), 1u);
  EXPECT_EQ(root["a"]["b"].item(2).int64(), -2);
  EXPECT_DOUBLE_EQ(root["a"]["b"].item(3).number(), 2.5);
  EXPECT_EQ(root["a"]["b"].items().size(), 4u);
  EXPECT_EQ(root.members().size(), 2u);
  const auto message = [](auto&& fn) {
    try {
      fn();
    } catch (const json::Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([&] { root["a"]["b"].item(1).number(); }),
            "$.a.b[1]: expected a number, got a string");
  EXPECT_EQ(message([&] { root["a"]["b"].item(2).uint64(); }),
            "$.a.b[2]: expected a non-negative integer in uint64 range, got "
            "a number");
  EXPECT_EQ(message([&] { root["a"]["b"].item(3).int64(); }),
            "$.a.b[3]: expected an integer in int64 range, got a number");
  EXPECT_EQ(message([&] { root["a"]["c"]; }), "$.a: missing key \"c\"");
  EXPECT_EQ(message([&] { root["a"]["b"]["c"]; }),
            "$.a.b: expected an object, got an array");
  EXPECT_EQ(message([&] { root["a"].items(); }),
            "$.a: expected an array, got an object");
  EXPECT_EQ(message([&] { root["a"]["b"].item(9); }),
            "$.a.b: no element 9 (size 4)");
  EXPECT_EQ(message([&] { root["t"].str(); }),
            "$.t: expected a string, got a bool");
  const json::Value list = json::parse(R"(["a", "b"])");
  EXPECT_EQ(json::Ref(list).strings(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(message([&] { root["a"]["b"].strings(); }),
            "$.a.b[0]: expected a string, got a number");
  // get_or: the fallback covers an absent key, never a wrong type.
  EXPECT_EQ(root.get_or("absent", std::int64_t{7}), 7);
  EXPECT_TRUE(root.get_or("t", false));
  EXPECT_EQ(message([&] { root.get_or("t", 0.0); }),
            "$.t: expected a number, got a bool");
}

TEST(Json, FileErrorsNameTheFile) {
  const std::string missing = "json_test_no_such_file.json";
  try {
    json::parse_file(missing);
    FAIL() << "parsed a missing file";
  } catch (const json::Error& e) {
    EXPECT_EQ(std::string(e.what()), "cannot open " + missing);
  }
  const std::string path = "json_test_bad.json";
  {
    std::ofstream out(path);
    out << "{\"a\": 1,}";
  }
  try {
    json::parse_file(path);
    FAIL() << "parsed a trailing comma";
  } catch (const json::Error& e) {
    EXPECT_EQ(std::string(e.what()),
              path + ": byte 8: trailing comma in object");
  }
  std::remove(path.c_str());
}

TEST(Json, AllKeysCollectsObjectKeysNotStringValues) {
  const json::Value v =
      json::parse(R"({"a": [{"b": "c"}], "d": {"e": ["f"]}})");
  const std::set<std::string> keys = json::all_keys(v);
  EXPECT_EQ(keys, (std::set<std::string>{"a", "b", "d", "e"}));
}

// ---------------------------------------------------------------------------
// Every writer's output parses strictly.

core::SortOutcome run_recovery(bool instruments) {
  util::Rng rng(1703);
  const fault::FaultSet faults = fault::random_faults(3, 1, rng);
  const auto keys = sort::gen_uniform(200, rng);
  core::SortConfig cfg;
  cfg.online_recovery = true;
  cfg.injector.kill_node_at(6, 2000.0);
  cfg.record_trace = true;
  if (instruments) {
    cfg.record_metrics = true;
    cfg.record_link_stats = true;
    cfg.record_timeline = true;
    cfg.record_lineage = true;
    cfg.watchdog.enabled = true;
    cfg.watchdog.abort_on_trip = false;
    cfg.watchdog.deadline_ms = 60'000;
  }
  const core::FaultTolerantSorter sorter(3, faults, cfg);
  return sorter.sort(keys);
}

/// Parses `text` and returns its top-level keys in order.
std::vector<std::string> top_keys(const std::string& text) {
  std::vector<std::string> keys;
  const json::Value v = json::parse(text);
  for (const json::Value::Member& m : v.members()) keys.push_back(m.first);
  return keys;
}

TEST(JsonWriters, MetricsJsonParsesWithInstrumentsOffAndOn) {
  for (const bool on : {false, true}) {
    const core::SortOutcome out = run_recovery(on);
    std::ostringstream os;
    sim::write_metrics_json(os, out.report);
    std::vector<std::string> keys;
    ASSERT_NO_THROW(keys = top_keys(os.str())) << parse_error(os.str());
    EXPECT_EQ(keys.front(), "schema_version");
    EXPECT_EQ(keys.back(), "phases");
    const json::Value v = json::parse(os.str());
    EXPECT_EQ(json::Ref(v)["lineage"]["enabled"].boolean(), on);
    EXPECT_EQ(json::Ref(v)["timeline"]["enabled"].boolean(), on);
    EXPECT_EQ(json::Ref(v)["links"]["enabled"].boolean(), on);
    EXPECT_EQ(json::Ref(v)["watchdog"]["enabled"].boolean(), on);
  }
}

TEST(JsonWriters, ChromeTraceParses) {
  const core::SortOutcome out = run_recovery(true);
  sim::ChromeTraceOptions opts;
  opts.cost = &out.report.cost;
  opts.timeline = &out.report.timeline;
  opts.lineage = &out.report.lineage;
  opts.trace_dropped = out.report.trace_dropped;
  std::ostringstream os;
  sim::write_chrome_trace(os, out.trace_events, 8, opts);
  EXPECT_EQ(parse_error(os.str()), "");
  std::string why;
  EXPECT_TRUE(sim::validate_chrome_trace(os.str(), &why)) << why;
}

TEST(JsonWriters, CampaignJsonParses) {
  campaign::CampaignConfig cfg;
  cfg.universe.n = 4;
  cfg.universe.r_max = 2;
  cfg.universe.scenarios = 4;
  cfg.universe.num_keys = 64;
  const campaign::CampaignReport report = campaign::run_campaign(cfg);
  std::ostringstream os;
  campaign::write_campaign_json(os, report);
  EXPECT_EQ(parse_error(os.str()), "");
}

TEST(JsonWriters, WatchdogDumpParses) {
  const core::SortOutcome out = run_recovery(true);
  sim::WatchdogReport rep;
  rep.enabled = true;
  rep.trips = 1;
  rep.slots.push_back({"node \"2\"", 3, 900, "merge\\split", false});
  rep.slots.push_back({"scheduler", 40, 2, "terminal", true});
  sim::WatchdogDumpContext ctx;
  ctx.diagnosis = &out.report.diagnosis;
  ctx.host = &out.report.host;
  ctx.trace_tail = &out.trace_events;
  const std::string dump = sim::render_watchdog_dump(rep, ctx);
  EXPECT_EQ(parse_error(dump), "");
  // The escaped label and activity come back decoded.
  const json::Value v = json::parse(dump);
  EXPECT_EQ(json::Ref(v)["heartbeats"].item(0)["slot"].str(), "node \"2\"");
  EXPECT_EQ(json::Ref(v)["heartbeats"].item(0)["activity"].str(),
            "merge\\split");
}

// ---------------------------------------------------------------------------
// Every checked-in JSON file parses strictly.

TEST(JsonCheckedIn, BenchFilesParse) {
  const std::filesystem::path root = FTSORT_SOURCE_DIR;
  std::vector<std::filesystem::path> files = {root / "BENCH_sort.json"};
  for (const auto& entry : std::filesystem::directory_iterator(root / "bench"))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  ASSERT_GE(files.size(), 5u);  // BENCH_sort, two baselines, two schemas
  for (const std::filesystem::path& f : files)
    EXPECT_NO_THROW(json::parse_file(f.string())) << f;
}

TEST(JsonCheckedIn, EveryHistoryLineParses) {
  const std::string text = json::load_text(
      (std::filesystem::path(FTSORT_SOURCE_DIR) / "bench" /
       "BENCH_history.jsonl")
          .string());
  std::istringstream in(text);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(parse_error(line), "") << "line " << lines;
  }
  EXPECT_GT(lines, 0u);
}

}  // namespace
}  // namespace ftsort
