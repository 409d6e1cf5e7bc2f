// perfbench: the repository benchmark's driver binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//   perfbench --check-checker   corrupted-output self-test of the checker
//
// Prints a provenance line and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. run.py builds this binary
// and forwards the arguments; see README.md in this directory.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "sort/merge_split.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n"
               "       perfbench --check-checker\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) {
    std::fprintf(stderr, "perfbench: non-finite metric value\n");
    v = 0.0;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--check-checker") {
      const bool ok = perfbench::checker_self_test();
      std::printf("checker self-test: %s\n", ok ? "ok" : "FAILED");
      return ok ? 0 : 1;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        have_seconds = opt.seconds > 0.0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage();
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--trace-out") {
        opt.trace_out = v;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
    return usage();

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  // A checker that cannot fail would pass anything: every run proves it
  // rejects corrupted outputs before its own verdict counts.
  r.checker_ok = perfbench::checker_self_test();

  r.provenance["seed"] = std::to_string(opt.seed);
  r.provenance["trace"] = opt.trace ? "1" : "0";
  r.provenance["kernel_backend"] =
      ftsort::sort::active_kernel_backend() == ftsort::sort::KernelBackend::Simd
          ? "simd"
          : "scalar";
  r.provenance["build_type"] = PERFBENCH_BUILD_TYPE;
  r.provenance["compiler"] = PERFBENCH_COMPILER;
  r.provenance["nproc"] = std::to_string(std::thread::hardware_concurrency());

  std::string prov = "{\"provenance\": {";
  bool first = true;
  for (const auto& [k, v] : r.provenance) {
    prov += (first ? "\"" : ", \"") + json_escape(k) + "\": \"" +
            json_escape(v) + "\"";
    first = false;
  }
  std::printf("%s}}\n", prov.c_str());

  const bool correct = r.failed == 0 && r.checker_ok && r.attempted > 0;
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    line += (i ? ", \"" : "\"") + json_escape(m.name) +
            "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
            json_escape(m.unit) + "\"}";
  }
  std::printf("%s}}\n", line.c_str());
  return 0;
}
