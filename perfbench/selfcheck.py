#!/usr/bin/env python3
"""Fast self-check of the repository benchmark.

    python3 perfbench/selfcheck.py

Run it from the repository root. It builds the benchmark, then runs every
workload at a tiny size (`--tiny`) through the same code path as a
measured run, untraced and traced, with every correctness check on. It fails unless each run exits 0, reports
`correct: true` with no failed playback requests, and prints exactly the
metrics BENCHMARK.json lists, in its order and units. About half a minute.
"""

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's entry point, beside this file)


def run_problems(binary, workload, trace):
    code, lines, result = run.run_workload(binary, workload, seed=7, seconds=0,
                                           trace=trace, tiny=True)
    label = "%s --trace %d" % (workload, trace)
    if code != 0 or result is None:
        return ["%s: exit %d, result %s" % (label, code, result)]
    problems = []
    if result.get("correct") is not True:
        problems.append("%s: correct is %s" % (label, result.get("correct")))
    if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append("%s: attempted %s, failed %s" % (
            label, result.get("attempted"), result.get("failed")))
    mismatch = run.metric_mismatch(result, trace)
    if mismatch:
        problems.append("%s: %s" % (label, mismatch))
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s is not a finite number" % (label, name))
        elif not trace and value <= 0:
            problems.append("%s: end-to-end metric %s reads %s" % (label, name, value))
    if not any(line.startswith("cell ") for line in lines):
        problems.append("%s: no cell fingerprint lines" % label)
    return problems


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    binary = run.build()
    for w in spec["workloads"]:
        for trace in (False, True):
            problems += run_problems(binary, w["name"], trace)
            print("checked %s --trace %d" % (w["name"], trace), flush=True)
    for p in problems:
        print("selfcheck: " + p, file=sys.stderr)
    print("selfcheck %s" % ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
