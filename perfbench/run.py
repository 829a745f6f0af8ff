#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace <0|1>

Run from the repository root. The Rust benchmark package in this
directory is built against the repository's crates into
$CARGO_TARGET_DIR (default: .bench_build). The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics of BENCHMARK.json when --trace 0 and the
per-layer ones when --trace 1, each with the unit BENCHMARK.json gives. A traced run also writes its spans next
to the binary. Exits non-zero, without a result line, if the build fails
or the result does not name exactly the metrics BENCHMARK.json lists.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed % 2**64),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(target, f"spans-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print(run.stdout, end="")
        fail(f"benchmark exited with code {run.returncode}")
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    want = spec["per_layer" if args.trace == "1" else "end_to_end"]
    values = result["metrics"]
    if set(values) != {m["name"] for m in want}:
        fail("reported metrics differ from BENCHMARK.json")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in want}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
