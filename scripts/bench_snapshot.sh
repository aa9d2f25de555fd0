#!/usr/bin/env bash
# Tier-2 benchmark snapshot: runs the pipeline-level benchmarks and a
# corpus-wide checking pass, then writes one sequenced BENCH_<n>.json
# capturing wall-clock per bench plus the corpus settled fraction and
# verdict counts. Snapshots are append-only — compare two files to see a
# regression, delete none.
#
# Usage: scripts/bench_snapshot.sh
#   BUILD_DIR=build      build tree holding the bench binaries
#   OUT_DIR=bench/snapshots   where BENCH_<n>.json lands
#   HISTORY=<file>       run-history JSONL (obs/history.hpp format) to append
#                        one kind="bench" record to (default
#                        $OUT_DIR/history.jsonl; HISTORY="" disables)
#   FAST=1               cut benchmark min-time for a smoke-speed snapshot
#   BENCHES="a b"        override the bench binary list
#
# Each snapshot is stamped with the git SHA/branch/dirty state it measured,
# so a regression found by `lisa trends` can name the commit that caused it.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
OUT_DIR=${OUT_DIR:-bench/snapshots}
BENCHES=${BENCHES:-"bench_fig5_pipeline bench_static_screening bench_ci_gate bench_smt_solver bench_interp bench_incremental bench_schedule"}

if [[ ! -x "$BUILD_DIR/tools/lisa" ]]; then
  echo "bench_snapshot: $BUILD_DIR/tools/lisa not built (run cmake --build $BUILD_DIR)" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

extra_flags=()
if [[ "${FAST:-0}" == "1" ]]; then
  extra_flags+=(--benchmark_min_time=0.01)
fi

ran=()
for bench in $BENCHES; do
  binary="$BUILD_DIR/bench/$bench"
  if [[ ! -x "$binary" ]]; then
    echo "bench_snapshot: skipping $bench (not built)" >&2
    continue
  fi
  echo "bench_snapshot: running $bench..." >&2
  # --benchmark_out keeps the JSON clean of the benches' own stdout tables.
  "$binary" --benchmark_out="$tmp/$bench.json" --benchmark_out_format=json \
    "${extra_flags[@]}" > "$tmp/$bench.log" 2>&1 || {
    echo "bench_snapshot: $bench failed:" >&2
    cat "$tmp/$bench.log" >&2
    exit 1
  }
  ran+=("$bench")
done

# Corpus-wide verdict accounting: one checking pass over every case, read
# off the metrics registry (screen.* for the settled fraction, checker.*
# for path verdict counts).
echo "bench_snapshot: running corpus pass..." >&2
"$BUILD_DIR/tools/lisa" profile all --json > "$tmp/corpus.json"

# Provenance stamp: which commit these numbers measure. Degrades to
# "unknown" outside a git checkout rather than failing the snapshot.
GIT_SHA=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
GIT_BRANCH=$(git rev-parse --abbrev-ref HEAD 2>/dev/null || echo unknown)
GIT_DIRTY=false
if [[ "$GIT_SHA" != unknown ]] && ! git diff --quiet HEAD 2>/dev/null; then
  GIT_DIRTY=true
fi

# Next sequence number (BENCH_1.json, BENCH_2.json, ...).
n=1
while [[ -e "$OUT_DIR/BENCH_$n.json" ]]; do n=$((n + 1)); done
out="$OUT_DIR/BENCH_$n.json"

HISTORY=${HISTORY-"$OUT_DIR/history.jsonl"}

TMP="$tmp" OUT="$out" RAN="${ran[*]}" HISTORY="$HISTORY" \
  GIT_SHA="$GIT_SHA" GIT_BRANCH="$GIT_BRANCH" GIT_DIRTY="$GIT_DIRTY" python3 - <<'PY'
import json, os, time

tmp, out = os.environ["TMP"], os.environ["OUT"]
snapshot = {
    "schema": "lisa-bench-snapshot",
    "version": 1,
    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    "git": {
        "sha": os.environ["GIT_SHA"],
        "branch": os.environ["GIT_BRANCH"],
        "dirty": os.environ["GIT_DIRTY"] == "true",
    },
    "benches": {},
    "corpus": {},
}

for bench in os.environ["RAN"].split():
    with open(f"{tmp}/{bench}.json") as f:
        report = json.load(f)
    for entry in report.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue
        record = {"wall_ms": entry["real_time"] * {
            "ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[entry.get("time_unit", "ns")]}
        for key, value in entry.items():
            if key in ("name", "run_name", "run_type", "repetitions",
                       "repetition_index", "threads", "iterations", "real_time",
                       "cpu_time", "time_unit", "family_index",
                       "per_family_instance_index"):
                continue
            if isinstance(value, (int, float)):
                record[key] = value
        snapshot["benches"][entry["name"]] = record

with open(f"{tmp}/corpus.json") as f:
    corpus = json.load(f)
counters = corpus.get("metrics", {}).get("counters", {})
safe = counters.get("screen.proved-safe", 0)
refuted = counters.get("screen.proved-violated", 0)
unknown = counters.get("screen.unknown", 0)
screened = safe + refuted + unknown
# Interleaving-sensitive (deadlock/race) contracts settle through the lock
# graph, not the execution tree — their settled fraction is tracked apart.
i_safe = counters.get("screen.interleaving.proved-safe", 0)
i_refuted = counters.get("screen.interleaving.proved-violated", 0)
i_unknown = counters.get("screen.interleaving.unknown", 0)
i_screened = i_safe + i_refuted + i_unknown
# Atomicity/liveness contracts are decided by the schedule explorer, not the
# lock graph: track how many interleavings it ran and what fraction of those
# contracts it drained conclusively (an inconclusive exploration is a typed
# gate failure, so a drop here means the schedule workload outgrew its bound).
sched_contracts = counters.get("checker.schedule_contracts", 0)
sched_inconclusive = counters.get("checker.schedule_inconclusive", 0)
snapshot["corpus"] = {
    "cases": corpus.get("cases", 0),
    "violations": corpus.get("violations", 0),
    "settled_fraction": (safe + refuted) / screened if screened else 1.0,
    "interleaving_settled_fraction":
        (i_safe + i_refuted) / i_screened if i_screened else 1.0,
    "schedules_explored": counters.get("checker.schedules_explored", 0),
    "interleaving_conclusive_fraction":
        (sched_contracts - sched_inconclusive) / sched_contracts
        if sched_contracts else 1.0,
    "verdicts": {
        "contracts": counters.get("checker.contracts", 0),
        "interleaving_contracts": counters.get("checker.interleaving_contracts", 0),
        "schedule_contracts": sched_contracts,
        "schedule_violations": counters.get("checker.schedule_violations", 0),
        "schedule_inconclusive": sched_inconclusive,
        "paths_verified": counters.get("checker.paths_verified", 0),
        "paths_violated": counters.get("checker.paths_violated", 0),
        "paths_unmappable": counters.get("checker.paths_unmappable", 0),
        "paths_uncovered": counters.get("checker.paths_uncovered", 0),
        "screen_proved_safe": safe,
        "screen_proved_violated": refuted,
        "screen_unknown": unknown,
        "screen_interleaving_proved_safe": i_safe,
        "screen_interleaving_proved_violated": i_refuted,
        "screen_interleaving_unknown": i_unknown,
    },
}

with open(out, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
    f.write("\n")
print(out)

# Longitudinal record: append one kind="bench" RunRecord to the run-history
# store (obs/history.hpp JSONL format, shared with `lisa check/gate
# --history`), so `lisa trends` and `lisa diff --history` can watch bench
# numbers next to gate latencies. The header matches support::jsonl_header.
history = os.environ.get("HISTORY", "")
if history:
    compact = dict(separators=(",", ":"), sort_keys=True)
    record = {
        "kind": "bench",
        "label": "bench_snapshot",
        "input_fingerprint": snapshot["git"]["sha"],
        "contracts": {},
        "metrics": {"settled_fraction": snapshot["corpus"]["settled_fraction"],
                    "violations": float(snapshot["corpus"]["violations"]),
                    "schedules_explored":
                        float(snapshot["corpus"]["schedules_explored"]),
                    "interleaving_conclusive_fraction":
                        snapshot["corpus"]["interleaving_conclusive_fraction"]},
        "meta": {"git_sha": snapshot["git"]["sha"],
                 "git_branch": snapshot["git"]["branch"],
                 "git_dirty": str(snapshot["git"]["dirty"]).lower(),
                 "snapshot": os.path.basename(out)},
    }
    for name, entry in snapshot["benches"].items():
        # Benchmark names ("BM_Foo/3") are free-form; metric keys keep only
        # charset-safe characters and gain the _ms suffix the latency drift
        # rule watches.
        key = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
        record["metrics"][key + "_ms"] = entry["wall_ms"]
    new_file = not os.path.exists(history) or os.path.getsize(history) == 0
    with open(history, "a") as f:
        if new_file:
            f.write(json.dumps({"fingerprint": "", "journal": "lisa-history",
                                "version": 1}, **compact) + "\n")
        f.write(json.dumps(record, **compact) + "\n")
    print(f"bench_snapshot: appended bench record to {history}")
PY
