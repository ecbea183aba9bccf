#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 40 --trace 0

Run it from the repository root. It builds the `perfbench` crate in
release mode (into `$CARGO_TARGET_DIR`, default `.bench_build`), runs the
workload in a process of its own, serially on one thread, and prints:

* a `fingerprint` line: nproc, CPU model, rustc version, git revision (or
  a digest of the sources outside a git checkout) and the workload seed;
* one `cell` line per simulation run, fingerprinting its simulated
  statistics, and on paper-mix one `orderings` line per trace;
* one `round` line per round with the round's untraced wall seconds;
* a `playbacks` line with the playback requests attempted and failed;
* last, one JSON object with `correct`, `attempted`, `failed` and
  `metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`,
  its per-layer metrics with `--trace 1`.

A failed build, a failed correctness check or metric names that differ
from BENCHMARK.json exit non-zero. `--tiny` runs every workload at a
small size through the same code path (see selfcheck.py).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BINARY = "socialtube-perfbench"
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark binary; returns its path or raises."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    return os.path.join(target_dir(), "release", BINARY)


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for a traced or untraced run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def source_digest():
    """sha256 over the simulator's sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, name)
            for d, dirs, names in os.walk(path)
            if "target" not in os.path.relpath(d, path).split(os.sep)
            for name in names
            if name.endswith((".rs", ".toml", ".lock", ".py")))
        for file in files:
            h.update(os.path.relpath(file, ROOT).encode())
            with open(file, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(seed):
    def output(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return out.stdout.strip() if out.returncode == 0 else None
        except OSError:
            return None

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rev = output(["git", "rev-parse", "--short=12", "HEAD"]) or "none"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": output(["rustc", "--version"]) or "unknown",
        "git_rev": rev,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def run_workload(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (exit code, printed lines, parsed result)."""
    cmd = [binary, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            pass
    return proc.returncode, lines, result


def metric_mismatch(result, trace):
    """Describes how the printed metrics differ from BENCHMARK.json, if they do."""
    want = expected_metrics(trace)
    got = [(name, m.get("unit")) for name, m in result["metrics"].items()]
    if got == want:
        return None
    return "metrics %s differ from BENCHMARK.json %s" % (got, want)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    print("fingerprint " + json.dumps(fingerprint(args.seed)), flush=True)
    try:
        code, lines, result = run_workload(binary, args.workload, args.seed, args.seconds,
                                           bool(args.trace), args.tiny)
    except subprocess.TimeoutExpired:
        print("perfbench: the workload ran past %d s and was stopped" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    if result is None:
        print("perfbench: the workload printed no result (exit %d)" % code, file=sys.stderr)
        return code or 1
    mismatch = metric_mismatch(result, bool(args.trace))
    if mismatch:
        print("perfbench: " + mismatch, file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
