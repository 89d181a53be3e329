#!/usr/bin/env bash
# Full pre-merge check matrix:
#
#   1. Release build with -Werror (bench/ included, so benchmark code
#      cannot carry warnings either), ctest, then the oracle-session A/B
#      audit: bench_oracle_calls runs in a temp dir (results/ untouched)
#      and fails the leg when the counting algorithm's oracle-call counts
#      differ between session and fresh mode; then the batch audit:
#      bench_batch (its group-size sweep included) runs in a temp dir the
#      same way and fails the leg on any AUDIT FAILURE line (batch,
#      direct, bank and sequential answers disagree, or an unknown was
#      cached)
#   2. AddressSanitizer build, ctest
#   3. UndefinedBehaviorSanitizer build, ctest
#   4. ThreadSanitizer build, running the concurrency surface only
#      (thread-pool/parallel-enumeration/oracle-session tests) — TSan
#      triples runtimes, and the rest of the suite is single-threaded
#   5. clang-tidy over src/ (skipped with a notice when not installed)
#   6. clang-format --dry-run -Werror over src/ (same skip rule)
#   7. ddlint over examples/programs/*.ddb, diffed against the committed
#      golden diagnostics (examples/programs/lint_golden.txt) so rule
#      regressions show as a diff, with the SARIF export validated
#      through `python3 -m json.tool`; exit 2 = out of budget and fails
#      the check (1 just means diagnostics, which the bait programs
#      produce on purpose)
#   8. observability export smoke: ddquery --trace-json/--metrics on a
#      real example program, both outputs validated through
#      `python3 -m json.tool` (docs/OBSERVABILITY.md schema contract); a
#      session that interns a fresh atom must publish dd.minimal.sat_calls,
#      dd.minimal.cegar_iterations and dd.session.cache_hits equal to the
#      sums of its reasoner spans' counters,
#      plus the CLI flag contract (`ddquery --help` exits 0, an unknown
#      `--` flag exits 1), plus a `ddquery --certify` sweep over every
#      example program —
#      certificate rejections flip the exit code and fail the leg
#      (docs/ANALYSIS.md section 5)
#   9. batched-query A/B: every examples/programs/*.queries file runs
#      once through `ddquery --batch` (4 workers) and once line-by-line
#      through the interactive loop; the answer streams must be
#      identical (docs/BATCHING.md determinism contract). The file is
#      also replayed through `ddquery --serve`, its verbs mapped onto the
#      protocol (lit|infer -> QUERY, brave -> BRAVE, answers|banswers ->
#      ANSWERS); the verdicts, and the yes/unknown/candidates counts of
#      template lines, must match --batch. First-order programs (.fodb)
#      join via the grounder auto-detect.
#  9b. template A/B: the first-order coloring3 and reach (recursive)
#      workloads replayed under --naive-templates (sequential
#      per-instantiation evaluation) must emit byte-identical answer
#      blocks to the batched default (docs/TEMPLATES.md equivalence
#      contract), and the same answer lines under --ground-relevance; each
#      file replayed twice in one run (warm index, warm cache) must print
#      the cold output twice, batched and naive alike
#  10. crash-recovery: a --batch run covering all eleven semantics with
#      --cache-file is killed (kill -9 via _exit) at each
#      DD_SNAPSHOT_CRASH_AT point mid-save; the restarted run must load
#      clean (or cold-start from the torn temp file) and answer
#      identically to a cache-less cold run (docs/SERVING.md §snapshots)
#  11. fault-injection + deadline soak: the DD_FAULT_UNKNOWN_AT /
#      DD_FAULT_EXHAUST_AFTER matrix over the injection-tolerant
#      FaultSoak suite of budget_test, under the ASan build (docs/
#      ROBUSTNESS.md: every semantics must answer reference-or-Unknown,
#      never crash, never flip)
#
# Usage: scripts/check.sh [--fast]   (--fast: Release leg only)
set -u
cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "usage: scripts/check.sh [--fast]" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"
FAILED=0

run_leg() { # name build_dir cmake_args...   (CTEST_FILTER: optional -R regex)
  local name="$1" dir="$2"; shift 2
  local filter="${CTEST_FILTER:-}"
  echo "===== $name ====="
  if ! cmake -B "$dir" -S . "$@" >"$dir.configure.log" 2>&1; then
    echo "$name: configure FAILED (see $dir.configure.log)"; FAILED=1; return
  fi
  if ! cmake --build "$dir" -j "$JOBS" >"$dir.build.log" 2>&1; then
    echo "$name: build FAILED (see $dir.build.log)"; FAILED=1; return
  fi
  if ! ctest --test-dir "$dir" -j "$JOBS" --output-on-failure \
       ${filter:+-R "$filter"} >"$dir.ctest.log" 2>&1; then
    echo "$name: ctest FAILED (see $dir.ctest.log)"; FAILED=1; return
  fi
  tail -n 2 "$dir.ctest.log"
  echo "$name: OK"
}

run_leg "release (-Werror)" build-check-release \
        -DCMAKE_BUILD_TYPE=Release -DDD_WERROR=ON -DDD_BUILD_BENCHMARKS=ON

echo "===== oracle-session A/B (bench_oracle_calls) ====="
AB_BIN="$PWD/build-check-release/bench/bench_oracle_calls"
if [ -x "$AB_BIN" ]; then
  # The bench writes BENCH_oracle_calls.json into its working directory;
  # a temp dir keeps the committed results/ copy untouched (~3 s).
  AB_TMP="$(mktemp -d)"
  if ! (cd "$AB_TMP" && "$AB_BIN" --timeout-ms=10000 >ab.out 2>&1); then
    tail -n 12 "$AB_TMP/ab.out"
    echo "oracle A/B: oracle-call counts differ between modes (or the run failed)"
    FAILED=1
  else
    echo "oracle A/B: OK (oracle-call counts identical in both modes)"
  fi
  rm -rf "$AB_TMP"
else
  echo "oracle A/B: bench_oracle_calls not built; skipping"
fi

echo "===== batch audit (bench_batch) ====="
BATCH_BIN="$PWD/build-check-release/bench/bench_batch"
if [ -x "$BATCH_BIN" ]; then
  # Writes BENCH_batch.json into the temp dir, not results/ (~20 s).
  BATCH_TMP="$(mktemp -d)"
  (cd "$BATCH_TMP" && "$BATCH_BIN" --timeout-ms=10000 >batch.out 2>&1)
  BATCH_RC=$?
  if [ "$BATCH_RC" -ne 0 ] || grep -q 'AUDIT FAILURE' "$BATCH_TMP/batch.out"; then
    grep 'AUDIT FAILURE' "$BATCH_TMP/batch.out" | head -n 12
    tail -n 3 "$BATCH_TMP/batch.out"
    echo "batch audit: FAILED (exit $BATCH_RC)"
    FAILED=1
  else
    echo "batch audit: OK (every leg of every row answers alike)"
  fi
  rm -rf "$BATCH_TMP"
else
  echo "batch audit: bench_batch not built; skipping"
fi

if [ "$FAST" -eq 0 ]; then
  run_leg "asan" build-check-asan \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDD_SANITIZE=address \
          -DDD_BUILD_BENCHMARKS=OFF
  run_leg "ubsan" build-check-ubsan \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDD_SANITIZE=undefined \
          -DDD_BUILD_BENCHMARKS=OFF
  # The concurrency surface: the thread-pool contract tests, the parallel
  # enumeration layers behind them, and the oracle-session suite (sessions
  # are what parallel chunks must NOT share).
  # batch_test joins the filter because AnswerBatch evaluates slice groups
  # on the shared pool (group engines must never share oracle sessions);
  # bank_store_test adds the cross-batch bank store feeding those groups.
  # serve_test joins because the serving layer's gate/session-swap paths
  # are exercised from multiple threads (RequestGate waiters, hot reload).
  # tmpl_test joins because template answering fans every substitution out
  # over the batch pool (threads {1,4} sweeps in the equivalence matrix).
  # slice_test joins because its compact-slice differential runs 4-thread
  # batches whose groups read the reasoner's cached compact sub-databases.
  CTEST_FILTER='thread_pool_test|oracle_session_test|fixpoint_test|egcwa_ecwa_test|ddr_pws_test|batch_test|bank_store_test|serve_test|tmpl_test|slice_test' \
  run_leg "tsan (concurrency tests)" build-check-tsan \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDD_SANITIZE=thread \
          -DDD_BUILD_BENCHMARKS=OFF
fi

echo "===== clang-tidy ====="
if command -v clang-tidy >/dev/null 2>&1; then
  if ! cmake --build build-check-release --target lint; then
    echo "clang-tidy: FAILED"; FAILED=1
  else
    echo "clang-tidy: OK"
  fi
else
  echo "clang-tidy: not installed; skipping"
fi

echo "===== clang-format ====="
if command -v clang-format >/dev/null 2>&1; then
  if ! find src tests examples bench -name '*.cc' -o -name '*.h' -o -name '*.cpp' \
       | xargs clang-format --dry-run -Werror; then
    echo "clang-format: FAILED"; FAILED=1
  else
    echo "clang-format: OK"
  fi
else
  echo "clang-format: not installed; skipping"
fi

echo "===== ddlint over examples/programs (golden + SARIF) ====="
LINT_BIN=build-check-release/examples/ddlint
if [ -x "$LINT_BIN" ]; then
  LINT_TMP="$(mktemp -d)"
  "$LINT_BIN" --diagnostics-only --sarif="$LINT_TMP/lint.sarif" \
    examples/programs/*.ddb >"$LINT_TMP/lint.out" 2>&1
  rc=$?
  if [ "$rc" -ge 2 ]; then
    echo "ddlint: out of budget / unexpected failure (exit $rc)"; FAILED=1
  elif ! diff -u examples/programs/lint_golden.txt "$LINT_TMP/lint.out"; then
    echo "ddlint: diagnostics drifted from the committed golden file"
    echo "  (regenerate: ddlint --diagnostics-only examples/programs/*.ddb > examples/programs/lint_golden.txt)"
    FAILED=1
  elif command -v python3 >/dev/null 2>&1 && \
       ! python3 -m json.tool "$LINT_TMP/lint.sarif" >/dev/null 2>&1; then
    echo "ddlint: SARIF export does not parse as JSON"; FAILED=1
  else
    echo "ddlint: OK (diagnostics match golden, SARIF validates; exit $rc)"
  fi
  rm -rf "$LINT_TMP"
else
  echo "ddlint: binary not built; skipping"
fi

echo "===== observability export (trace-json / metrics) ====="
QUERY_BIN=build-check-release/examples/ddquery
if [ -x "$QUERY_BIN" ] && command -v python3 >/dev/null 2>&1; then
  OBS_TMP="$(mktemp -d)"
  printf 'infer gcwa a | b\nexists egcwa\nstats\nquit\n' | \
    "$QUERY_BIN" --trace-json="$OBS_TMP/trace.json" \
    examples/programs/example31.ddb >/dev/null 2>&1
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "obs: ddquery --trace-json exited $rc"; FAILED=1
  elif ! python3 -m json.tool "$OBS_TMP/trace.json" >/dev/null 2>&1; then
    echo "obs: trace JSON does not parse"; FAILED=1
  elif ! printf 'infer gcwa a | b\nquit\n' | \
        "$QUERY_BIN" --metrics examples/programs/example31.ddb 2>/dev/null \
        | sed -n '/^{"counters"/p' | python3 -m json.tool >/dev/null 2>&1; then
    echo "obs: --metrics JSON does not parse"; FAILED=1
  # One number on every surface: a session whose fresh atom drops the
  # cached engines must publish the same totals its reasoner spans sum to.
  elif ! printf 'lit gcwa not detour\nlit gcwa not fresh_atom\ninfer egcwa detour | shortcut\nquit\n' | \
        "$QUERY_BIN" --metrics --trace-json="$OBS_TMP/fresh.json" \
        examples/programs/positive.ddb 2>/dev/null \
        | sed -n '/^{"counters"/p' >"$OBS_TMP/fresh.metrics" || \
       ! python3 - "$OBS_TMP/fresh.metrics" "$OBS_TMP/fresh.json" <<'PY'
import json, sys
metrics = json.load(open(sys.argv[1]))["counters"]
spans = [s for s in json.load(open(sys.argv[2]))["spans"]
         if s["layer"] == "reasoner"]
bad = 0
for metric, counter in [("dd.minimal.sat_calls", "oracle_calls"),
                        ("dd.minimal.cegar_iterations", "cegar_iterations"),
                        ("dd.session.cache_hits", "cache_hits")]:
    total = sum(s["counters"].get(counter, 0) for s in spans)
    if metrics.get(metric) != total:
        print(f"obs: {metric}={metrics.get(metric)} but reasoner spans "
              f"sum {counter}={total}")
        bad = 1
sys.exit(bad)
PY
  then
    echo "obs: --metrics totals differ from the reasoner-span sums"; FAILED=1
  else
    echo "obs: OK (trace + metrics JSON validate; metrics == span sums)"
  fi
  rm -rf "$OBS_TMP"
else
  echo "obs: ddquery or python3 unavailable; skipping"
fi

echo "===== ddquery flags (--help / unknown flag) ====="
if [ -x "$QUERY_BIN" ]; then
  "$QUERY_BIN" --help >/dev/null 2>&1
  help_rc=$?
  "$QUERY_BIN" --no-such-flag examples/programs/example31.ddb \
    </dev/null >/dev/null 2>&1
  bad_rc=$?
  if [ "$help_rc" -ne 0 ] || [ "$bad_rc" -ne 1 ]; then
    echo "flags: --help exited $help_rc (want 0), unknown flag exited $bad_rc (want 1)"
    FAILED=1
  else
    echo "flags: OK (--help exits 0, unknown flag exits 1)"
  fi
else
  echo "flags: ddquery not built; skipping"
fi

echo "===== ddquery --certify over examples/programs ====="
if [ -x "$QUERY_BIN" ]; then
  CERT_TMP="$(mktemp -d)"
  CERT_FAILED=0
  for prog in examples/programs/*.ddb; do
    case "$(basename "$prog")" in
      positive.ddb)
        q='lit gcwa goal\nlit gcwa not detour\ninfer egcwa detour | shortcut\nlit dsm hub\n' ;;
      example31.ddb)
        q='lit gcwa a\nlit pws not c\nlit ddr not c\n' ;;
      head_cycle.ddb)
        q='lit gcwa d\nlit dsm not e\n' ;;
      horn.ddb)
        q='lit gcwa reach_c\nlit ccwa not blocked\n' ;;
      lint_bait.ddb)
        q='infer gcwa e | f\nlit egcwa not g\n' ;;
      stratified.ddb)
        q='lit perf awake\nlit icwa not broken\n' ;;
      *)  # new example programs still get a model-existence sweep
        q='exists gcwa\nexists dsm\n' ;;
    esac
    if ! printf "${q}stats\nquit\n" | "$QUERY_BIN" --certify "$prog" \
         >"$CERT_TMP/out.txt" 2>&1; then
      echo "certify: $prog FAILED (certificate rejected or query error)"
      cat "$CERT_TMP/out.txt"
      CERT_FAILED=1
    fi
    cat "$CERT_TMP/out.txt" >>"$CERT_TMP/all.txt"
  done
  # The sweep must actually exercise the certificate layer: at least one
  # program (positive.ddb's slice/module cones) emits witnesses.
  if ! grep -Eq 'certificates: emitted=[1-9]' "$CERT_TMP/all.txt"; then
    echo "certify: sweep emitted no certificates (fast paths disabled?)"
    CERT_FAILED=1
  fi
  if [ "$CERT_FAILED" -ne 0 ]; then
    FAILED=1
  else
    echo "certify: OK (all certificates accepted across $(ls examples/programs/*.ddb | wc -l) programs)"
  fi
  rm -rf "$CERT_TMP"
else
  echo "certify: ddquery not built; skipping"
fi

echo "===== ddquery --batch A/B over examples/programs ====="
if [ -x "$QUERY_BIN" ]; then
  BATCH_TMP="$(mktemp -d)"
  BATCH_FAILED=0
  BATCH_COUNT=0
  for q in examples/programs/*.queries; do
    [ -f "$q" ] || continue
    # Propositional programs are .ddb; first-order (grounder-ingested)
    # programs are .fodb — ddquery auto-detects the syntax either way.
    prog="${q%.queries}.ddb"
    [ -f "$prog" ] || prog="${q%.queries}.fodb"
    if [ ! -f "$prog" ]; then
      echo "batch: $q has no matching .ddb/.fodb"; BATCH_FAILED=1; continue
    fi
    BATCH_COUNT=$((BATCH_COUNT + 1))
    # Batch leg: one --batch run (4 workers; answers must not depend on
    # thread count). A nonzero exit is a failure — the committed .queries
    # files contain no out-of-budget or malformed lines.
    if ! "$QUERY_BIN" --batch="$q" --threads=4 "$prog" \
         >"$BATCH_TMP/batch.out" 2>"$BATCH_TMP/batch.err"; then
      echo "batch: $prog --batch exited nonzero"
      cat "$BATCH_TMP/batch.err"; BATCH_FAILED=1; continue
    fi
    # Sequential leg: the same file replayed line-by-line through the
    # interactive loop (same grammar; 'loaded ...' banner stripped).
    if ! "$QUERY_BIN" "$prog" <"$q" >"$BATCH_TMP/seq.raw" 2>/dev/null; then
      echo "batch: interactive replay of $q failed"; BATCH_FAILED=1; continue
    fi
    grep -v '^loaded ' "$BATCH_TMP/seq.raw" >"$BATCH_TMP/seq.out"
    if ! diff -u "$BATCH_TMP/seq.out" "$BATCH_TMP/batch.out"; then
      echo "batch: $prog batch/interactive answers differ"; BATCH_FAILED=1
    fi
    # Serve leg: the same file mapped onto the serve protocol (lit|infer ->
    # QUERY <SEM> lit|infer, brave -> BRAVE <SEM>, answers|banswers ->
    # ANSWERS <SEM> skeptical|brave) must give the same verdicts, and the
    # same yes/unknown/candidates counts for template lines.
    sed -E -e 's/^[[:space:]]*(lit|infer)[[:space:]]+([^[:space:]]+)[[:space:]]+/QUERY \2 \1 /' \
        -e 's/^[[:space:]]*brave[[:space:]]+/BRAVE /' \
        -e 's/^[[:space:]]*answers[[:space:]]+([^[:space:]]+)[[:space:]]+/ANSWERS \1 skeptical /' \
        -e 's/^[[:space:]]*banswers[[:space:]]+([^[:space:]]+)[[:space:]]+/ANSWERS \1 brave /' \
        "$q" >"$BATCH_TMP/serve.in"
    if ! "$QUERY_BIN" --serve "$prog" <"$BATCH_TMP/serve.in" \
         >"$BATCH_TMP/serve.raw" 2>/dev/null; then
      echo "batch: serve replay of $q exited nonzero"
      cat "$BATCH_TMP/serve.raw"; BATCH_FAILED=1; continue
    fi
    sed -E -n \
        -e 's/^ANSWER ([a-z]+) .*/\1/p' \
        -e 's/^ANSWERS yes=([0-9]+) unknown=([0-9]+) candidates=([0-9]+) rungs=[0-9]+ vacuous=1.*/answers: \1 yes, \2 unknown, \3 candidates (no intended model: vacuous)/p' \
        -e 's/^ANSWERS yes=([0-9]+) unknown=([0-9]+) candidates=([0-9]+).*/answers: \1 yes, \2 unknown, \3 candidates/p' \
        -e '/^(ERR|UNAVAILABLE) /p' \
        "$BATCH_TMP/serve.raw" >"$BATCH_TMP/serve.out"
    grep -Ev '^(answer|unknown): ' "$BATCH_TMP/batch.out" \
      | sed -E 's/^unknown \(out of budget\)$/unknown/' >"$BATCH_TMP/batch.verdicts"
    if ! diff -u "$BATCH_TMP/batch.verdicts" "$BATCH_TMP/serve.out"; then
      echo "batch: $prog batch/serve answers differ"; BATCH_FAILED=1
    fi
  done
  if [ "$BATCH_COUNT" -eq 0 ]; then
    echo "batch: no .queries files found"; FAILED=1
  elif [ "$BATCH_FAILED" -ne 0 ]; then
    FAILED=1
  else
    echo "batch: OK (batch == interactive == serve on $BATCH_COUNT programs)"
  fi
  rm -rf "$BATCH_TMP"
else
  echo "batch: ddquery not built; skipping"
fi

echo "===== template A/B (batched vs --naive-templates) ====="
if [ -x "$QUERY_BIN" ]; then
  TPL_TMP="$(mktemp -d)"
  TPL_FAILED=0
  # The coloring workload and the recursive reachability program (its
  # relevance grounding runs semi-naive rounds through a non-linear rule).
  for TPL_PROG in examples/programs/coloring3.fodb \
                  examples/programs/reach.fodb; do
    TPL_Q="${TPL_PROG%.fodb}.queries"
    # Batched default: every template's instantiations share one AnswerBatch
    # call (bank + cache). Naive flag: the sequential single-query entry
    # points. The answer blocks must be byte-identical — including the
    # candidate counts, so grounding must match too.
    if ! "$QUERY_BIN" --batch="$TPL_Q" --threads=4 "$TPL_PROG" \
         >"$TPL_TMP/batched.out" 2>"$TPL_TMP/batched.err"; then
      echo "template: $TPL_PROG batched run exited nonzero"
      cat "$TPL_TMP/batched.err"; TPL_FAILED=1
    elif ! "$QUERY_BIN" --batch="$TPL_Q" --naive-templates "$TPL_PROG" \
         >"$TPL_TMP/naive.out" 2>"$TPL_TMP/naive.err"; then
      echo "template: $TPL_PROG --naive-templates run exited nonzero"
      cat "$TPL_TMP/naive.err"; TPL_FAILED=1
    elif ! diff -u "$TPL_TMP/batched.out" "$TPL_TMP/naive.out"; then
      echo "template: $TPL_PROG batched/naive answers differ"; TPL_FAILED=1
    fi
    # Relevance-filtered grounding must keep every answer (candidate counts
    # legitimately shrink, so compare the answer lines only). The leg runs
    # without budgets, so an unknown line on either side is a change too.
    if [ "$TPL_FAILED" -eq 0 ]; then
      if ! "$QUERY_BIN" --batch="$TPL_Q" --ground-relevance "$TPL_PROG" \
           >"$TPL_TMP/relevance.out" 2>&1; then
        echo "template: $TPL_PROG --ground-relevance run exited nonzero"
          TPL_FAILED=1
      else
        grep -E '^(answer:|unknown|yes|no)' "$TPL_TMP/batched.out" \
          >"$TPL_TMP/full.ans"
        grep -E '^(answer:|unknown|yes|no)' "$TPL_TMP/relevance.out" \
          >"$TPL_TMP/rel.ans"
        if ! diff -u "$TPL_TMP/full.ans" "$TPL_TMP/rel.ans"; then
          echo "template: $TPL_PROG --ground-relevance changed the answers"
            TPL_FAILED=1
        fi
      fi
    fi
    # Warm replay: the file twice in one run. The second copy reuses the
    # Reasoner's tuple index and the warm answer cache, and must print
    # exactly what the cold first copy printed.
    if [ "$TPL_FAILED" -eq 0 ]; then
      cat "$TPL_Q" "$TPL_Q" >"$TPL_TMP/twice.queries"
      cat "$TPL_TMP/batched.out" "$TPL_TMP/batched.out" >"$TPL_TMP/twice.want"
      for flag in --threads=4 --naive-templates; do
        if ! "$QUERY_BIN" --batch="$TPL_TMP/twice.queries" "$flag" "$TPL_PROG" \
             >"$TPL_TMP/twice.out" 2>"$TPL_TMP/twice.err"; then
          echo "template: $TPL_PROG warm replay ($flag) exited nonzero"
          cat "$TPL_TMP/twice.err"; TPL_FAILED=1
        elif ! diff -u "$TPL_TMP/twice.want" "$TPL_TMP/twice.out"; then
          echo "template: $TPL_PROG warm replay ($flag) differs from the cold run"
          TPL_FAILED=1
        fi
      done
    fi
  done
  if [ "$TPL_FAILED" -ne 0 ]; then
    FAILED=1
  else
    echo "template: OK (batched == naive, relevance grounding answer-stable, warm == cold)"
  fi
  rm -rf "$TPL_TMP"
else
  echo "template: ddquery not built; skipping"
fi

echo "===== crash-recovery (snapshot save under kill -9) ====="
if [ -x "$QUERY_BIN" ]; then
  CR_TMP="$(mktemp -d)"
  CR_FAILED=0
  # An integrity-constraint-free program (PERF rejects ICs) with one
  # query per semantics, so recovery is proven on all eleven.
  printf 'a | b.\nc :- a.\nc :- b.\nd.\n' >"$CR_TMP/prog.ddb"
  cat >"$CR_TMP/all.queries" <<'EOF'
lit cwa d
lit gcwa c
lit egcwa d
lit ccwa not a
lit ecwa not a
lit ddr not a
lit pws not a
lit perf c
lit icwa not a
lit dsm d
lit pdsm not a
EOF
  # Reference: a cache-less cold run.
  if ! "$QUERY_BIN" --batch="$CR_TMP/all.queries" "$CR_TMP/prog.ddb" \
       >"$CR_TMP/cold.out" 2>&1; then
    echo "crash-recovery: reference cold run failed"; CR_FAILED=1
  fi
  for point in partial before-rename after-rename; do
    [ "$CR_FAILED" -ne 0 ] && break
    rm -f "$CR_TMP/cache.snap" "$CR_TMP/cache.snap.tmp"
    # Leg A: the run is killed mid-save (snapshot.cc calls _exit(137) at
    # the injected point; "partial" additionally tears the temp file).
    env DD_SNAPSHOT_CRASH_AT="$point" \
      "$QUERY_BIN" --batch="$CR_TMP/all.queries" \
      --cache-file="$CR_TMP/cache.snap" "$CR_TMP/prog.ddb" >/dev/null 2>&1
    rc=$?
    if [ "$rc" -ne 137 ]; then
      echo "crash-recovery: $point run exited $rc, expected 137"
      CR_FAILED=1; continue
    fi
    # Leg B: restart against whatever the crash left behind (torn temp
    # file, complete-but-unrenamed temp file, or a valid snapshot). The
    # answers must be byte-identical to the cold reference.
    if ! "$QUERY_BIN" --batch="$CR_TMP/all.queries" \
         --cache-file="$CR_TMP/cache.snap" "$CR_TMP/prog.ddb" \
         >"$CR_TMP/warm.out" 2>"$CR_TMP/warm.err"; then
      echo "crash-recovery: restart after $point crash exited nonzero"
      cat "$CR_TMP/warm.err"; CR_FAILED=1; continue
    fi
    if ! diff -u "$CR_TMP/cold.out" "$CR_TMP/warm.out"; then
      echo "crash-recovery: answers after $point crash differ from cold run"
      CR_FAILED=1
    fi
  done
  if [ "$CR_FAILED" -ne 0 ]; then
    FAILED=1
  else
    echo "crash-recovery: OK (partial, before-rename, after-rename; 11 semantics)"
  fi
  rm -rf "$CR_TMP"
else
  echo "crash-recovery: ddquery not built; skipping"
fi

echo "===== fault-injection + deadline soak (ASan) ====="
SOAK_BIN=build-check-asan/tests/budget_test
if [ "$FAST" -eq 0 ] && [ -x "$SOAK_BIN" ]; then
  # Inject kUnknown / budget exhaustion at a matrix of oracle-call
  # positions; the FaultSoak suite accepts reference-answer-or-Unknown
  # and fails on any crash or flipped yes/no.
  for n in 1 2 3 5 8 13; do
    for knob in DD_FAULT_UNKNOWN_AT DD_FAULT_EXHAUST_AFTER; do
      if ! env "$knob=$n" "$SOAK_BIN" --gtest_filter='FaultSoak.*' \
           --gtest_brief=1 >/dev/null 2>&1; then
        echo "soak: FAILED under $knob=$n"; FAILED=1
      fi
    done
  done
  if [ "$FAILED" -eq 0 ]; then echo "soak: OK (12 injection points)"; fi
elif [ "$FAST" -eq 1 ]; then
  echo "soak: skipped (--fast)"
else
  echo "soak: budget_test not built under ASan; skipping"
fi

echo
if [ "$FAILED" -ne 0 ]; then
  echo "check.sh: FAILURES present"; exit 1
fi
echo "check.sh: all legs passed"
