#!/usr/bin/env bash
# Bench smoke: every wsi-bench binary must still run end-to-end, and every
# BENCH_*.json artifact it emits must parse and carry a non-empty `results`
# array. Seconds-scale op counts — this checks the harnesses, not the
# numbers; the committed full-scale artifacts are produced by the
# ops-per-thread defaults documented in each binary.
#
#   scripts/bench_smoke.sh [bin_dir]
#
# Runs inside a scratch directory so the reduced-scale runs never clobber
# the committed full-scale BENCH_*.json artifacts in the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."
repo_root="$(pwd)"
bin="${1:-target/release}"
bin="$(cd "$bin" && pwd)"

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
cd "$scratch"

echo "== bench smoke (binaries from $bin, scratch $scratch) =="

# Simulation harnesses: stdout-only, no JSON artifact.
"$bin/figures" m1 >/dev/null
"$bin/probe" 10 uniform complex 100000 2 2 >/dev/null

# Artifact-producing benches, reduced scale.
"$bin/store_concurrency" 200 0 >/dev/null
"$bin/mvcc_scaling" 100 5 >/dev/null
# trace_overhead is also the flight-recorder acceptance gate (exit 1 when
# the journal costs >5% geomean), so running it here makes the smoke fail
# on an overhead regression. At this reduced scale the geomean jitters
# ±5% run-to-run on a one-core host (hypervisor steal), so the gate gets
# best-of-three and only a repeatable overhead regression fails the smoke.
trace_ok=0
for attempt in 1 2 3; do
    if "$bin/trace_overhead" 2000 >/dev/null; then
        trace_ok=1
        break
    fi
    echo "  trace_overhead gate attempt $attempt failed; retrying" >&2
done
if [ "$trace_ok" -ne 1 ]; then
    echo "error: trace_overhead gate failed three runs in a row" >&2
    exit 1
fi

# A bench binary that exits 0 without writing its artifact is a harness
# bug, not a validation detail: fail loudly, naming the missing artifact,
# before any JSON parsing (which would otherwise surface the problem as an
# unrelated-looking open() traceback). The list of required artifacts is
# derived from EXPERIMENTS.md — every `BENCH_*.json` a bench section names
# must come out of the smoke run — so a newly documented artifact is gated
# the day it is written up, and a documented-but-never-produced one (PR 3
# shipped its oracle-scaling section with no committed artifact) fails here
# instead of surviving as a broken reproduction promise.
experiments_artifacts="$(grep -o 'BENCH_[A-Za-z0-9_]*\.json' "$repo_root/EXPERIMENTS.md" | sort -u)"
if [ -z "$experiments_artifacts" ]; then
    echo "error: EXPERIMENTS.md names no BENCH_*.json artifacts; the derivation is broken" >&2
    exit 1
fi
missing=0
for artifact in $experiments_artifacts TRACE_flight_recorder.json; do
    if ! test -s "$artifact"; then
        echo "error: EXPERIMENTS.md names $artifact but the bench run produced no such file" >&2
        missing=1
    fi
done
# Artifacts EXPERIMENTS.md declares "checked into" must also exist at the
# repo root at full scale — the smoke's scratch copies never clobber them,
# so nothing else guarantees they were actually committed.
for artifact in $(grep -o 'checked into `BENCH_[A-Za-z0-9_]*\.json`' "$repo_root/EXPERIMENTS.md" \
    | grep -o 'BENCH_[A-Za-z0-9_]*\.json' | sort -u); do
    if ! test -s "$repo_root/$artifact"; then
        echo "error: EXPERIMENTS.md says $artifact is checked in, but the repo root has no such file" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    exit 1
fi

# Every artifact must parse as JSON with a non-empty `results` array (and
# the metrics snapshot with non-empty counters).
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
import sys

for path, key in [
    ("BENCH_store_concurrency.json", None),  # top-level array
    ("BENCH_store_concurrency_metrics.json", None),  # top-level array
    ("BENCH_mvcc_scaling.json", "results"),
    ("BENCH_trace_overhead.json", "results"),
]:
    with open(path) as f:
        doc = json.load(f)
    entries = doc if key is None else doc.get(key)
    if not entries:
        sys.exit(f"{path}: empty or missing '{key or 'top-level array'}'")
    print(f"  {path}: ok ({len(entries)} entries)")

# The trace-overhead artifact must carry its gate verdict, and the Chrome
# trace export must be a valid trace_event document: a `traceEvents` array
# of objects each naming a phase (`ph`) and timestamp (`ts`).
with open("BENCH_trace_overhead.json") as f:
    summary = json.load(f)["summary"]
for field in ("geomean_on_off_ratio", "gate_min_ratio", "pass"):
    if field not in summary:
        sys.exit(f"BENCH_trace_overhead.json: summary missing '{field}'")
with open("TRACE_flight_recorder.json") as f:
    trace = json.load(f)
events = trace.get("traceEvents")
if not events:
    sys.exit("TRACE_flight_recorder.json: empty or missing 'traceEvents'")
for e in events:
    if "ph" not in e or "ts" not in e or "name" not in e:
        sys.exit("TRACE_flight_recorder.json: malformed trace event")
print(f"  TRACE_flight_recorder.json: ok ({len(events)} trace events)")
EOF
else
    echo "  warning: python3 unavailable, JSON content checked by size only"
fi

echo "== bench smoke ok =="
