#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the streaming PCA pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs rebuild
incrementally.  The benchmark binary prints a metric table and, as its
last line, one JSON result object; this script passes both through and
checks that the result names exactly the metrics BENCHMARK.json lists for
the mode (end_to_end for --trace 0, per_layer for --trace 1).  The exit
status is the binary's (0: every correctness check passed), or non-zero
without a result line when the build or the result is broken.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(targets=("perfbench",)):
    """Configures (once) and builds; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "app", "pipeline.h")):
        fail("no src/ next to perfbench/: run from the root of a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Returns a list of problems with the result line."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s"
                        % (missing, extra))
    return problems


def run(workload, seed, seconds, trace):
    """Builds, runs one benchmark, and returns (exit status, stdout)."""
    out = build()
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        # One file per workload: the latest traced run's spans.
        cmd += ["--spans", os.path.join(out, "spans-%s.jsonl" % workload)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    status, stdout = run(args.workload, args.seed, args.seconds, args.trace == 1)
    lines = stdout.rstrip("\n").split("\n")
    if status not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(stdout)
        fail("benchmark exited with status %d and no result" % status)
    problems = check_result(lines[-1], args.trace == 1)
    if problems:
        sys.stderr.write(stdout)
        fail("; ".join(problems))
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
