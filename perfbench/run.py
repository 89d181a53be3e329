#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <serve_zipf|template_rw> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the repository root. The library and the perfbench runner are
compiled (Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; later runs only relink what changed. Build
output goes to standard error.

The runner prints '#' lines and, last, a JSON result. This script passes
them through, except that a traced run's result gets every per-layer
metric of BENCHMARK.json, in its order: a metric the workload's layers do
not produce reads 0. See perfbench/NOTES.md for the metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds perfbench; returns the binary path or None."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench")


def complete_layers(result):
    """Orders a traced result's metrics as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer"]
    names = {m["name"] for m in listed}
    extra = sorted(set(result["metrics"]) - names)
    if extra:
        sys.exit("perfbench: metrics missing from BENCHMARK.json: %s" %
                 ", ".join(extra))
    result["metrics"] = {
        m["name"]: result["metrics"].get(m["name"],
                                         {"value": 0, "unit": m["unit"]})
        for m in listed}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if args.trace:
        result = complete_layers(result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
