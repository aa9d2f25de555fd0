#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
#
# Usage: scripts/check.sh [mode]
#   (none)               plain build + tests + smokes
#   sanitize [set]       sanitizer build + tests; set is `address,undefined`
#                        (default) or `thread` (TSan)
#   tidy                 clang-tidy smoke over src/staticcheck/ (skips with a
#                        notice when clang-tidy is not installed)
#   --sanitize           back-compat alias for `sanitize address,undefined`
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
SANITIZE=OFF
case "${1:-}" in
  --sanitize)
    SANITIZE=address,undefined
    BUILD_DIR=build-asan
    ;;
  sanitize)
    SANITIZE="${2:-address,undefined}"
    case "$SANITIZE" in
      address,undefined) BUILD_DIR=build-asan ;;
      thread)            BUILD_DIR=build-tsan ;;
      *)
        echo "check.sh: unknown sanitizer set '$SANITIZE'" \
             "(expected 'address,undefined' or 'thread')" >&2
        exit 2
        ;;
    esac
    ;;
  tidy)
    # clang-tidy smoke over the static-analysis subsystem: regenerate the
    # compilation database and lint src/staticcheck/. The concurrency and
    # bugprone checks are the point — this is the code that reasons about
    # locks, so it should itself pass a lock-aware linter.
    if ! command -v clang-tidy > /dev/null; then
      echo "check.sh tidy: clang-tidy not installed; skipping (not a failure)"
      exit 0
    fi
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
    clang-tidy -p build --quiet src/staticcheck/*.cpp
    echo "tidy smoke: OK (src/staticcheck clean)"
    exit 0
    ;;
  "") ;;
  *)
    echo "check.sh: unknown mode '${1}' (expected: sanitize, tidy, or no argument)" >&2
    exit 2
    ;;
esac

if [[ "$SANITIZE" == address,undefined ]]; then
  # The build already makes UBSan findings fatal; this keeps them fatal and
  # adds the stack, whatever UBSAN_OPTIONS the caller had set.
  export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
fi

cmake -B "$BUILD_DIR" -S . -DLISA_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Interposer smoke: perfbench times its layers by wrapping the functions that
# perfbench/layer_spans.cpp names by mangled symbol (its SYM_* defines). A
# symbol no library defines any more still links there, and its layer then
# reads 0, so every name must be defined in the libraries just built.
defined_symbols=$(nm --defined-only "$BUILD_DIR"/src/*/liblisa_*.a 2> /dev/null | awk 'NF == 3 { print $3 }')
wrapped=0
missing=0
while read -r symbol; do
  wrapped=$((wrapped + 1))
  if ! grep -qxF -- "$symbol" <<< "$defined_symbols"; then
    echo "check.sh: perfbench interposes $symbol, which no library in $BUILD_DIR defines" >&2
    missing=$((missing + 1))
  fi
done < <(sed -n 's/^#define SYM_[A-Z_]* "\(_Z[^"]*\)".*$/\1/p' perfbench/layer_spans.cpp)
if [[ "$wrapped" -eq 0 || "$missing" -ne 0 ]]; then
  echo "check.sh: $missing of $wrapped interposed symbols undefined" >&2
  exit 1
fi
echo "interposer smoke: OK ($wrapped SYM_* symbols defined)"

# Corpus-wide lint smoke: --json must emit a parseable report and exit 0
# (clean) or 1 (diagnosed errors — the corpus keeps one by design).
# Anything else (crash, bad flag handling) fails the check.
lint_status=0
"$BUILD_DIR"/tools/lisa lint --json > /dev/null || lint_status=$?
if [[ "$lint_status" -gt 1 ]]; then
  echo "check.sh: lisa lint --json exited $lint_status (expected 0 or 1)" >&2
  exit 1
fi
echo "lint --json smoke: OK (exit $lint_status)"

# Profile smoke: the cost table must come back as JSON with the expected
# top-level schema (profile.spans / profile.smt_hotspots / metrics), and the
# front end and the call-graph build (the structural index that holds every
# CFG and statement header) must each have a span of their own.
profile_out=$("$BUILD_DIR"/tools/lisa profile zookeeper --json)
for key in '"profile"' '"spans"' '"smt_hotspots"' '"wall_ms"' '"metrics"' '"counters"' \
           '"minilang.parse"' '"callgraph.build"'; do
  if [[ "$profile_out" != *"$key"* ]]; then
    echo "check.sh: lisa profile zookeeper --json output lacks $key" >&2
    exit 1
  fi
done
if command -v python3 > /dev/null; then
  echo "$profile_out" | python3 -m json.tool > /dev/null || {
    echo "check.sh: lisa profile zookeeper --json is not valid JSON" >&2
    exit 1
  }
fi
echo "profile --json smoke: OK"

# Chaos smoke: a governed run with armed fault points must degrade into a
# structured report — exit 0 (all conclusive) or 1 (violations/inconclusive),
# never a crash — and must say so in the output instead of silently passing.
chaos_status=0
chaos_out=$(LISA_FAULTPOINTS=smt.solve=timeout,infer.propose=fail:1 \
  "$BUILD_DIR"/tools/lisa check zk-1208-ephemeral-create \
  --deadline-ms 200 --max-smt-queries 4) || chaos_status=$?
if [[ "$chaos_status" -gt 1 ]]; then
  echo "check.sh: chaos run exited $chaos_status (expected 0 or 1)" >&2
  exit 1
fi
if [[ "$chaos_out" != *"INCONCLUSIVE"* && "$chaos_out" != *"inconclusive"* ]]; then
  echo "check.sh: chaos run did not surface a degraded outcome" >&2
  echo "$chaos_out" >&2
  exit 1
fi
echo "chaos smoke: OK (exit $chaos_status, degradation surfaced)"

# Explain smoke: a known-violated corpus contract must produce a ledger with
# a reproduced narration (JSON schema) and a non-empty self-contained HTML
# report. Exit 1 is the expected "violations found" outcome.
explain_dir=$(mktemp -d)
explain_status=0
"$BUILD_DIR"/tools/lisa explain zk-1208-ephemeral-create --buggy --json \
  --html "$explain_dir/report.html" > "$explain_dir/ledger.json" || explain_status=$?
if [[ "$explain_status" -ne 1 ]]; then
  echo "check.sh: lisa explain on a violated case exited $explain_status (expected 1)" >&2
  exit 1
fi
python3 - "$explain_dir/ledger.json" <<'PY' || exit 1
import json, sys
ledger = json.load(open(sys.argv[1]))
assert ledger["journal"] == "lisa-ledger", ledger.get("journal")
assert ledger["fingerprint"], "missing run fingerprint"
violated = [c for c in ledger["contracts"] if not c["report"]["passed"]]
assert violated, "expected a violated contract"
for contract in violated:
    assert contract["smt_queries"], f"{contract['contract_id']}: no SMT evidence"
    narration = contract["narration"]
    assert narration["reproduced"], f"{contract['contract_id']}: not reproduced"
    assert narration["steps"], f"{contract['contract_id']}: empty trace"
PY
if [[ ! -s "$explain_dir/report.html" ]] || \
   ! grep -q "<!doctype html>" "$explain_dir/report.html"; then
  echo "check.sh: lisa explain --html produced no HTML report" >&2
  exit 1
fi
rm -rf "$explain_dir"
echo "explain smoke: OK (narration reproduced, HTML written)"

# Slice smoke: the verdict-cone report must be deterministic (byte-identical
# across two runs — the fingerprints key incremental re-checking) and the
# --json form must parse.
slice_dir=$(mktemp -d)
"$BUILD_DIR"/tools/lisa slice zk-1208-ephemeral-create > "$slice_dir/a.txt"
"$BUILD_DIR"/tools/lisa slice zk-1208-ephemeral-create > "$slice_dir/b.txt"
if ! cmp -s "$slice_dir/a.txt" "$slice_dir/b.txt"; then
  echo "check.sh: lisa slice output is not byte-stable across runs" >&2
  exit 1
fi
if ! grep -q "fingerprint" "$slice_dir/a.txt"; then
  echo "check.sh: lisa slice output lacks a fingerprint line" >&2
  exit 1
fi
"$BUILD_DIR"/tools/lisa slice zk-1208-ephemeral-create --json \
  | python3 -m json.tool > /dev/null || {
  echo "check.sh: lisa slice --json is not valid JSON" >&2
  exit 1
}
rm -rf "$slice_dir"
echo "slice smoke: OK (byte-stable, JSON valid)"

# Diff smoke: seeding buggy -> patched ledgers must report exactly one
# verdict flip, and the report must be byte-identical across invocations
# (postmortems diff CI artifacts; nondeterministic diffs are useless).
diff_dir=$(mktemp -d)
"$BUILD_DIR"/tools/lisa explain hdfs-pending-race --buggy \
  --ledger "$diff_dir/buggy.jsonl" > /dev/null || true
"$BUILD_DIR"/tools/lisa explain hdfs-pending-race \
  --ledger "$diff_dir/patched.jsonl" > /dev/null
diff_status=0
"$BUILD_DIR"/tools/lisa diff "$diff_dir/buggy.jsonl" "$diff_dir/patched.jsonl" \
  > "$diff_dir/a.txt" || diff_status=$?
if [[ "$diff_status" -ne 1 ]]; then
  echo "check.sh: lisa diff with a verdict flip exited $diff_status (expected 1)" >&2
  exit 1
fi
"$BUILD_DIR"/tools/lisa diff "$diff_dir/buggy.jsonl" "$diff_dir/patched.jsonl" \
  > "$diff_dir/b.txt" || true
if ! cmp -s "$diff_dir/a.txt" "$diff_dir/b.txt"; then
  echo "check.sh: lisa diff output is not byte-stable across runs" >&2
  exit 1
fi
if ! grep -q "verdict flips: 1" "$diff_dir/a.txt" || \
   ! grep -q "\[FLIP\] hdfs-pending-race#0: violated -> passed" "$diff_dir/a.txt"; then
  echo "check.sh: lisa diff did not report the seeded buggy->patched flip:" >&2
  cat "$diff_dir/a.txt" >&2
  exit 1
fi
# diff exits 1 on flips by design, so capture first instead of piping
# (pipefail would blame json.tool for diff's own exit code).
"$BUILD_DIR"/tools/lisa diff "$diff_dir/buggy.jsonl" "$diff_dir/patched.jsonl" --json \
  > "$diff_dir/a.json" || true
python3 -m json.tool "$diff_dir/a.json" > /dev/null || {
  echo "check.sh: lisa diff --json is not valid JSON" >&2
  exit 1
}
# A capture edited after it was written (its report's verified count set to
# 1) no longer matches its line's digest: lisa diff names the damaged side
# and exits 1, although no verdict flipped.
sed 's/"verified":0/"verified":1/' "$diff_dir/buggy.jsonl" > "$diff_dir/edited.jsonl"
diff_status=0
"$BUILD_DIR"/tools/lisa diff "$diff_dir/buggy.jsonl" "$diff_dir/edited.jsonl" \
  > "$diff_dir/c.txt" || diff_status=$?
if [[ "$diff_status" -ne 1 ]] || \
   ! grep -q "\[edit\] hdfs-pending-race#0: violated -> violated" "$diff_dir/c.txt" || \
   ! grep -q "damaged capture (after): its line does not match its digest" "$diff_dir/c.txt"; then
  echo "check.sh: lisa diff of an edited ledger exited $diff_status without naming" \
       "the damaged capture:" >&2
  cat "$diff_dir/c.txt" >&2
  exit 1
fi
rm -rf "$diff_dir"
echo "diff smoke: OK (one flip, damaged capture named, byte-stable, JSON valid)"

# Resume smoke: `--journal` names a provenance ledger. A resumed gate run
# replays the journaled contract and carries its capture into the run's
# ledger, so the `--report` ledgers of the cold and the resumed run are
# byte-identical. A journal whose violation count was corrupted (to 1e300)
# no longer matches its capture line's digest: the third run checks the
# contract again instead of replaying it, and records what the cold run
# recorded. Every run blocks the commit (exit 1).
resume_dir=$(mktemp -d)
"$BUILD_DIR"/tools/lisa source zk-1208-ephemeral-create > "$resume_dir/commit.ml"
resume_status=0
"$BUILD_DIR"/tools/lisa gate zk-1208-ephemeral-create "$resume_dir/commit.ml" \
  --journal "$resume_dir/journal.jsonl" --report "$resume_dir/R1" \
  > /dev/null 2>&1 || resume_status=$?
if [[ "$resume_status" -ne 1 ]]; then
  echo "check.sh: journaled gate run exited $resume_status (expected 1: blocked)" >&2
  exit 1
fi
resume_status=0
"$BUILD_DIR"/tools/lisa gate zk-1208-ephemeral-create "$resume_dir/commit.ml" \
  --journal "$resume_dir/journal.jsonl" --resume --report "$resume_dir/R2" \
  > "$resume_dir/resumed.md" 2>/dev/null || resume_status=$?
if [[ "$resume_status" -ne 1 ]]; then
  echo "check.sh: resumed gate run exited $resume_status (expected 1: blocked)" >&2
  exit 1
fi
if ! grep -q "Resumed 1 contract(s)" "$resume_dir/resumed.md"; then
  echo "check.sh: the resumed gate run replayed nothing:" >&2
  cat "$resume_dir/resumed.md" >&2
  exit 1
fi
if ! cmp "$resume_dir/R1/ledger.jsonl" "$resume_dir/R2/ledger.jsonl"; then
  echo "check.sh: the resumed run's ledger differs from the cold run's" >&2
  exit 1
fi
sed -i 's/"violated":[1-9][0-9]*/"violated":1e300/' "$resume_dir/journal.jsonl"
if ! grep -q '"violated":1e300' "$resume_dir/journal.jsonl"; then
  echo "check.sh: the journal has no violation count to corrupt" >&2
  exit 1
fi
resume_status=0
"$BUILD_DIR"/tools/lisa gate zk-1208-ephemeral-create "$resume_dir/commit.ml" \
  --journal "$resume_dir/journal.jsonl" --resume --report "$resume_dir/R3" \
  > "$resume_dir/corrupted.md" 2>/dev/null || resume_status=$?
if [[ "$resume_status" -ne 1 ]]; then
  echo "check.sh: gate run resumed from a corrupted journal exited $resume_status" \
    "(expected 1: blocked)" >&2
  exit 1
fi
if grep -q "Resumed 1 contract(s)" "$resume_dir/corrupted.md"; then
  echo "check.sh: the gate run replayed a corrupted journal line:" >&2
  cat "$resume_dir/corrupted.md" >&2
  exit 1
fi
if ! cmp "$resume_dir/R1/ledger.jsonl" "$resume_dir/R3/ledger.jsonl"; then
  echo "check.sh: the run resumed from a corrupted journal differs from the cold run" >&2
  exit 1
fi
rm -rf "$resume_dir"
echo "resume smoke: OK (all runs blocked, ledgers byte-identical, corrupted line re-checked)"

# Drift smoke: three clean gate runs seed a baseline history, then a run with
# an injected 40 ms delay (LISA_FAULTPOINTS) must turn the gate red with a
# narrated latency-regression cause — never silently.
drift_dir=$(mktemp -d)
"$BUILD_DIR"/tools/lisa source hdfs-pending-race > "$drift_dir/commit.ml"
for _ in 1 2 3; do
  "$BUILD_DIR"/tools/lisa gate hdfs-pending-race "$drift_dir/commit.ml" \
    --history "$drift_dir/history.jsonl" > /dev/null
done
drift_status=0
drift_out=$(LISA_FAULTPOINTS=summaries.fixpoint=delay:40 \
  "$BUILD_DIR"/tools/lisa gate hdfs-pending-race "$drift_dir/commit.ml" \
  --history "$drift_dir/history.jsonl" 2>/dev/null) || drift_status=$?
if [[ "$drift_status" -ne 1 ]]; then
  echo "check.sh: drifted gate run exited $drift_status (expected 1: blocked)" >&2
  exit 1
fi
if [[ "$drift_out" != *"drift [latency-regression]"* ]]; then
  echo "check.sh: blocked drifted run lacks the narrated cause:" >&2
  echo "$drift_out" >&2
  exit 1
fi
# All four runs (including the red one) are on record for `lisa trends`. A
# fifth run with a label that contains markup gets a timeline of its own;
# the HTML page shows the label as text.
"$BUILD_DIR"/tools/lisa gate hdfs-pending-race "$drift_dir/commit.ml" \
  --history "$drift_dir/history.jsonl" --history-label '<b>pending</b>' > /dev/null
trends_out=$("$BUILD_DIR"/tools/lisa trends "$drift_dir/history.jsonl" \
  --html "$drift_dir/trends.html")
if [[ "$trends_out" != *"4 run(s)"* || "$trends_out" != *"evaluation_ms"* ]]; then
  echo "check.sh: lisa trends does not show the recorded runs:" >&2
  echo "$trends_out" >&2
  exit 1
fi
if ! grep -q "gate &lt;b&gt;pending&lt;/b&gt; (1 run(s))" "$drift_dir/trends.html" || \
   grep -q "<b>pending" "$drift_dir/trends.html"; then
  echo "check.sh: lisa trends --html does not escape the run label:" >&2
  cat "$drift_dir/trends.html" >&2
  exit 1
fi
rm -rf "$drift_dir"
echo "drift smoke: OK (injected regression blocked the gate, narrated; trends HTML escaped)"

# Schedule chaos smoke: injecting a failure into schedule exploration must
# block the gate with a narrated inconclusive cause — an undrained schedule
# space is "no violation found so far", never a silent pass. The explicit
# --schedule-warn-only escape hatch downgrades the block; a clean rerun goes
# green, proving the block came from the injected fault.
sched_dir=$(mktemp -d)
"$BUILD_DIR"/tools/lisa source zk-session-close-race > "$sched_dir/commit.ml"
sched_status=0
sched_out=$(LISA_FAULTPOINTS=schedule.explore=fail \
  "$BUILD_DIR"/tools/lisa gate zk-session-close-race "$sched_dir/commit.ml" \
  2>/dev/null) || sched_status=$?
if [[ "$sched_status" -ne 1 ]]; then
  echo "check.sh: schedule-chaos gate run exited $sched_status (expected 1: blocked)" >&2
  exit 1
fi
if [[ "$sched_out" != *"schedule exploration inconclusive"* || \
      "$sched_out" != *"fault injected: schedule.explore"* ]]; then
  echo "check.sh: blocked schedule-chaos run lacks the narrated cause:" >&2
  echo "$sched_out" >&2
  exit 1
fi
warn_status=0
LISA_FAULTPOINTS=schedule.explore=fail \
  "$BUILD_DIR"/tools/lisa gate zk-session-close-race "$sched_dir/commit.ml" \
  --schedule-warn-only > /dev/null 2>&1 || warn_status=$?
if [[ "$warn_status" -ne 0 ]]; then
  echo "check.sh: --schedule-warn-only did not downgrade the inconclusive block" >&2
  exit 1
fi
"$BUILD_DIR"/tools/lisa gate zk-session-close-race "$sched_dir/commit.ml" > /dev/null
rm -rf "$sched_dir"
echo "schedule chaos smoke: OK (injected fault blocked the gate, narrated)"

# Bench-snapshot smoke: a FAST snapshot must produce a parseable file with
# the documented schema (benches -> wall_ms, corpus -> settled fraction and
# verdict counts), and the incremental bench must export its re-check
# fraction as a lifted counter.
snap_dir=$(mktemp -d)
FAST=1 OUT_DIR="$snap_dir" BUILD_DIR="$BUILD_DIR" \
  BENCHES="bench_smt_solver bench_incremental" scripts/bench_snapshot.sh > /dev/null
python3 - "$snap_dir/BENCH_1.json" <<'PY' || exit 1
import json, sys
snap = json.load(open(sys.argv[1]))
assert snap["schema"] == "lisa-bench-snapshot" and snap["version"] == 1
assert snap["timestamp"]
assert snap["git"]["sha"] and snap["git"]["branch"], snap.get("git")
assert isinstance(snap["git"]["dirty"], bool)
assert snap["benches"], "no bench entries"
assert all("wall_ms" in entry for entry in snap["benches"].values())
fractions = [entry["incremental_recheck_fraction"]
             for entry in snap["benches"].values()
             if "incremental_recheck_fraction" in entry]
assert fractions, "bench_incremental exported no incremental_recheck_fraction"
assert all(0.0 <= f < 1.0 for f in fractions), fractions
corpus = snap["corpus"]
assert 0.0 <= corpus["settled_fraction"] <= 1.0
assert 0.0 <= corpus["interleaving_settled_fraction"] <= 1.0
assert corpus["verdicts"]["contracts"] > 0
assert "screen_interleaving_proved_safe" in corpus["verdicts"]
# The schedule-explorer workload is on record: the corpus pass explored
# interleavings, and every explored contract was drained conclusively (the
# corpus patched sources fit the default bound by construction).
assert corpus["schedules_explored"] > 0, corpus
assert corpus["verdicts"]["schedule_contracts"] > 0, corpus["verdicts"]
assert corpus["interleaving_conclusive_fraction"] == 1.0, corpus
PY
# The snapshot also appends a kind="bench" record the trends CLI can read.
if [[ ! -s "$snap_dir/history.jsonl" ]]; then
  echo "check.sh: bench_snapshot.sh appended no history record" >&2
  exit 1
fi
snap_trends=$("$BUILD_DIR"/tools/lisa trends "$snap_dir/history.jsonl")
if [[ "$snap_trends" != *"bench bench_snapshot"* ]]; then
  echo "check.sh: lisa trends cannot read the bench history:" >&2
  echo "$snap_trends" >&2
  exit 1
fi
rm -rf "$snap_dir"
echo "bench snapshot smoke: OK (schema valid, git-stamped, history appended)"
