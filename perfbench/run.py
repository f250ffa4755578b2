#!/usr/bin/env python3
"""CellScope end-to-end benchmark: build, run one workload, check the result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload train_city|replay_city|serve_live \
        --seed N --seconds N --trace 0|1 [--rate REQ_PER_S]

Builds perfbench/ (a CMake package over the repository's src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
benchmark binary, and passes its output through. The last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}; its metric
names must be exactly BENCHMARK.json's "end_to_end" list (--trace 0) or
"per_layer" list (--trace 1), otherwise the run fails.

End-to-end metrics, per workload (see BENCHMARK.json for the reasons):
  setup_s      set-up time, median of three set-ups in the run
  result_s     time until the user's result exists: train_city trains the
               9,600-tower model (median over the run), replay_city replays
               the trace to labels and a checkpoint (median), serve_live is
               the p90 request latency of a closed loop at capacity (the
               open-loop p50/p99 at the nominal rate, timed from each
               request's due time, are printed above the result)
  rate_per_s   work per wall-clock second: towers trained, records applied,
               requests served by that closed loop
  peak_rss_mb  peak resident memory of the measured phase (after set-up)

Traced runs also write their spans to
$CARGO_TARGET_DIR/perfbench-out/spans-<workload>-<seed>.json.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds incrementally; build output goes to
    stderr so stdout carries only the benchmark's report."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "cellscope_perfbench")


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv):
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(os.path.join(target, "perfbench"))
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    try:
        proc = subprocess.run([binary] + argv + ["--out", out_dir],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        if lines and lines[-1].startswith("{"):
            print(lines[-1], flush=True)
        sys.exit(proc.returncode)

    result = json.loads(lines[-1])
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    expected = expected_metrics(traced)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
