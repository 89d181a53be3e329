#!/usr/bin/env bash
# Builds everything and regenerates the full experiment record:
#   test_output.txt   - the complete test-suite run
#   bench_output.txt  - every table/figure harness + microbenchmarks
#   results/          - the machine-readable BENCH_*.json files the
#                       harnesses emit (bench/bench_util.h writer)
#
# Harness flags are forwarded: run_experiments.sh --seed=7 --threads=4
# passes the root seed / worker count to every harness; --no-sessions
# regenerates the fresh-solver A/B baseline; --timeout-ms=N arms the
# per-instance watchdog (rows cut off by it carry "timeout": true in the
# BENCH_*.json output instead of hanging the sweep — docs/ROBUSTNESS.md).
#
# --small runs the quick preset instead: skips the test suite and runs
# only the oracle-call harness (the one whose rows carry full counter
# snapshots, docs/OBSERVABILITY.md), the batch amortization harness
# (whose audit doubles as an end-to-end soundness check,
# docs/BATCHING.md), the serving-layer harness (warm vs cold vs
# retry-ladder latency, docs/SERVING.md) and the template harness
# (batched vs per-instantiation answering, docs/TEMPLATES.md) under a
# 10 s watchdog. The resulting results/BENCH_oracle_calls.json,
# results/BENCH_batch.json, results/BENCH_serve.json and
# results/BENCH_template.json are small enough to commit as the
# checked-in reference exports.
set -u
cd "$(dirname "$0")/.."

SMALL=0
ARGS=()
for arg in "$@"; do
  case "$arg" in
    --small) SMALL=1 ;;
    *) ARGS+=("$arg") ;;
  esac
done
set -- ${ARGS+"${ARGS[@]}"}

cmake -B build -S .
cmake --build build

if [ "$SMALL" -eq 1 ]; then
  mkdir -p results
  rm -f results/BENCH_oracle_calls.json results/BENCH_batch.json \
        results/BENCH_serve.json results/BENCH_template.json
  echo "########## bench_oracle_calls (--small preset) ##########"
  (cd results && ../build/bench/bench_oracle_calls --timeout-ms=10000 "$@")
  echo "########## bench_batch (--small preset) ##########"
  (cd results && ../build/bench/bench_batch --timeout-ms=10000 "$@")
  echo "########## bench_serve (--small preset) ##########"
  (cd results && ../build/bench/bench_serve --timeout-ms=10000 "$@")
  echo "########## bench_template (--small preset) ##########"
  (cd results && ../build/bench/bench_template --timeout-ms=10000 "$@")
  echo "wrote results/BENCH_oracle_calls.json, results/BENCH_batch.json, results/BENCH_serve.json and results/BENCH_template.json"
  exit 0
fi

ctest --test-dir build 2>&1 | tee test_output.txt

mkdir -p results
rm -f results/BENCH_*.json

: > bench_output.txt
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "########## $(basename "$b") ##########" | tee -a bench_output.txt
  (cd results && "../$b" "$@" 2>&1) | tee -a bench_output.txt
  echo | tee -a bench_output.txt
done
echo "wrote test_output.txt, bench_output.txt and $(ls results/BENCH_*.json 2>/dev/null | wc -l) BENCH_*.json files in results/"
