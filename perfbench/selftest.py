#!/usr/bin/env python3
"""Self-tests of the benchmark: its C++ helpers, then a short smoke run of
every workload in both modes, each of which must pass the correctness
checks and print exactly the metrics BENCHMARK.json lists.

    python3 perfbench/selftest.py

Run from the root of a checkout; exit status 0 when everything passed.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import run  # noqa: E402

SMOKE_SECONDS = 1
SMOKE_SEED = 4242  # not one of the seeds the bounds were tuned on


def main():
    out = run.build(("perfbench", "perfbench_selftest"))
    failures = 0
    if subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode:
        print("FAIL: helper self-tests")
        failures += 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for workload in workloads:
        for trace in (False, True):
            label = "%s trace=%d" % (workload, trace)
            status, stdout = run.run(workload, SMOKE_SEED, SMOKE_SECONDS, trace)
            last = stdout.rstrip("\n").split("\n")[-1]
            problems = run.check_result(last, trace) if last.startswith("{") else [
                "no result line"]
            if not problems and not json.loads(last)["correct"]:
                problems.append("correctness checks failed")
            if status != 0:
                problems.append("exit status %d" % status)
            if problems:
                failures += 1
                print("FAIL: %s: %s" % (label, "; ".join(problems)))
            else:
                print("ok: %s" % label)
    print("%d failures" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
