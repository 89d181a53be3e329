#!/usr/bin/env python3
"""Steadiness proof and count-determinism check for the benchmark.

    python3 perfbench/steadiness.py [--seeds 10] [--trace 0|1]

Runs every workload of BENCHMARK.json on seeds 1..--seeds, twice per
seed: once for set 0 and once for set 1, alternating (set 0 seed 1, set 1
seed 1, set 0 seed 2, ...), so slow host drift lands on both sets alike
instead of on whichever ran second. For every end-to-end metric it reports
the spread of each set (interquartile range over median, as
statistics.quantiles(n=4) gives the quartiles) against the metric's bound,
and how far set 1's median moved from set 0's. The spread of setup_s is
printed but not held to the bound, as the benchmark contract exempts it;
its move is. With --trace 1 it instead checks that every per-layer count
(the metrics the runner names on its '# counts:' line) repeats exactly
between the sets for the same seed. Exits 1 when a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def run(bench, workload, seed, trace):
    """Returns (metric values, names of the count metrics) of one run."""
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("incorrect result: %s seed %d: %s" % (workload, seed,
                                                       lines[-1]))
    counts = set()
    for line in lines[:-1]:
        if line.startswith("# counts:"):
            counts.update(line.split()[2:])
    return {k: v["value"] for k, v in result["metrics"].items()}, counts


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def check_counts(workloads, results, counts):
    ok = True
    for w in workloads:
        for i, runs in enumerate(zip(*(results[s][w] for s in range(SETS)))):
            for name in sorted(counts[w]):
                values = [r[name] for r in runs]
                if len(set(values)) > 1:
                    ok = False
                    print("COUNT DRIFT %s seed %d %s: %s" % (w, i + 1, name,
                                                            values))
        print("%-12s counts checked: %s" % (w, " ".join(sorted(counts[w]))))
    print("per-layer counts", "repeat exactly" if ok else "DRIFTED")
    return ok


def check_spreads(bench, workloads, results):
    ok = True
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r[name] for r in results[s][w]] for s in range(SETS)]
            spreads = [spread(v) for v in sets]
            medians = [statistics.median(v) for v in sets]
            line = "%-12s %-16s bound %.2f  median %s  spread %s" % (
                w, name, bound, " / ".join("%.6g" % m for m in medians),
                " / ".join("%.3f" % s for s in spreads))
            if name == "setup_s":
                line += " (not bounded)"
            elif max(spreads) > bound:
                ok = False
                line += "  SPREAD OVER BOUND"
            if medians[0]:
                move = medians[1] / medians[0] - 1
                worse = move if metric["better"] == "lower" else -move
                line += "  moved %+.3f" % move
                if worse > bound:
                    ok = False
                    line += "  WORSE THAN BOUND"
            print(line)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    # results[set][workload] = list of metric dicts, seed order
    results = [{w: [] for w in workloads} for _ in range(SETS)]
    counts = {w: set() for w in workloads}
    for seed in range(1, args.seeds + 1):
        for w in workloads:
            for s in range(SETS):
                m, c = run(bench, w, seed, args.trace)
                results[s][w].append(m)
                counts[w] |= c
                print("set %d %-12s seed %2d %s" % (
                    s, w, seed, json.dumps(m, sort_keys=True)), flush=True)
    if args.trace:
        ok = check_counts(workloads, results, counts)
    else:
        ok = check_spreads(bench, workloads, results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
