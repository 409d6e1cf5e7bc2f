#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (which builds the ftsort libraries from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild only what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. See perfbench/README.md.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no ftsort sources under {ROOT}/src; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def deterministic(name, unit):
    """Metrics read from the simulator's logical counters: a fixed seed
    must reproduce them exactly."""
    if name in ("makespan_us", "complete_frac"):
        return True
    return unit == "count" and (
        name.endswith("_per_op")
        or name.startswith(("campaign.outcome.", "partition.")))


def self_test(binary):
    """Plumbing check: every workload for a trivial length, metric names
    against BENCHMARK.json, and same-seed determinism of the count metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    code, out = run_binary(binary, ["--check-checker"])
    ok = code == 0
    print(out.strip())
    declared = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    for w in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            failures = 0
            runs = []
            for _ in range(2):
                code, out = run_binary(binary, ["--workload", w, "--seed", "7",
                                                "--seconds", "1",
                                                "--trace", trace])
                res = last_json(out) if code == 0 else None
                if res is None:
                    print(f"FAIL {w} trace={trace}: exit {code}")
                    failures += 1
                    break
                runs.append(res)
            if len(runs) < 2:
                continue
            got = set(runs[0]["metrics"])
            if got != declared[trace]:
                print(f"FAIL {w} trace={trace}: undeclared "
                      f"{sorted(got - declared[trace])}, missing "
                      f"{sorted(declared[trace] - got)}")
                failures += 1
            if not all(r["correct"] and r["failed"] == 0 for r in runs):
                print(f"FAIL {w} trace={trace}: incorrect output")
                failures += 1
            for name in sorted(got):
                if not deterministic(name, runs[0]["metrics"][name]["unit"]):
                    continue
                a, b = (r["metrics"][name]["value"] for r in runs)
                if a != b:
                    print(f"FAIL {w} trace={trace}: {name} {a} != {b}")
                    failures += 1
            print(f"{'FAIL' if failures else 'ok  '} {w} trace={trace}: "
                  f"{len(got)} metrics")
            ok = ok and failures == 0
    print("self-test:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    binary = build()
    if args == ["--self-test"]:
        sys.exit(self_test(binary))
    if "--trace-out" not in args and "--trace" in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1":
            args += ["--trace-out", os.path.join(build_dir(), "spans.json")]
    code, out = run_binary(binary, args)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
