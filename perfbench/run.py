#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload reproduce|replay|serve|all \
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout. It builds the `perfbench` crate beside
this file in release mode (into $CARGO_TARGET_DIR, by default
`.bench_build` at the checkout root), then runs the named workload in a
fresh process. The workload's report and its final JSON result line go to
standard output. `--workload all` runs every workload in turn, each in its
own process, and ends with one JSON line merging their results under
`<workload>.<metric>` names.

A `replay` run is three processes, each replaying its own history (seeds
3N, 3N+1 and 3N+2) for a third of the seconds; every metric is the median
of the three. On a shared 2-core host the replay rates moved far more
between processes than between passes of one process: with one process
per run, runs of one seed differed by up to a fifth.

The process exits non-zero, printing no result, when the build fails or a
workload exits non-zero or overruns its time limit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("reproduce", "replay", "serve")
# Processes per run, each with its own derived seed; see the module docs.
PROCESSES = {"replay": 3}
# A run (all its processes) that has not finished by then is stopped, so
# that every run ends within three minutes.
RUN_TIMEOUT_S = 170


def host_fact(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build(env):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def run_process(binary, workload, seed, seconds, args, env, deadline):
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    try:
        result = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} overran {RUN_TIMEOUT_S}s and was stopped")
    sys.stderr.write(result.stderr)
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        sys.exit(f"perfbench: {workload} exited with code {result.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def run_workload(binary, workload, args, env):
    n = PROCESSES.get(workload, 1)
    seconds = max(1, args.seconds // n)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = [run_process(binary, workload, args.seed * n + k, seconds, args, env, deadline)
               for k in range(n)]
    if n == 1:
        return results[0]
    metrics = {
        name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
               "unit": metric["unit"]}
        for name, metric in results[0]["metrics"].items()
    }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    binary = build(env)
    env["PERFBENCH_RUSTC"] = host_fact(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = host_fact(["git", "rev-parse", "--short=12", "HEAD"])

    if args.workload != "all":
        result = run_workload(binary, args.workload, args, env)
        print(json.dumps(result))
        return
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(binary, workload, args, env)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
