#!/usr/bin/env bash
# Regression gate over the anchored performance trajectory.
#
#   scripts/bench_gate.sh [trajectory.csv]
#
# The path is taken from the repository root (default:
# results/trajectory.csv).
#
# Each row of the trajectory holds, for one workload, a change's median of
# every end-to-end metric of BENCHMARK.json divided by the median of the
# anchor commit (7e8ac36) measured in the same session, interleaved with
# it, so drift of the host cancels in the ratio. Per workload the newest
# row is compared with the row before it: the gate fails when a ratio is
# worse than the previous one by more than that metric's BENCHMARK.json
# bound ("worse" is lower for a metric whose `better` is "higher", higher
# otherwise). A workload with a single row passes. Performance changes run
# it after appending their rows; tier 1 does not.
set -euo pipefail

cd "$(dirname "$0")/.."

python3 - "${1:-results/trajectory.csv}" <<'PY'
import csv
import json
import sys

metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
rows = {}
for row in csv.DictReader(open(sys.argv[1])):
    rows.setdefault(row["workload"], []).append(row)

failed = False
for workload, history in rows.items():
    if len(history) < 2:
        print(f"{workload}: first row ({history[-1]['pr']}), nothing to compare")
        continue
    prev, cur = history[-2], history[-1]
    for m in metrics:
        name, bound = m["name"], m["bound"]
        before, after = float(prev[name]), float(cur[name])
        if m["better"] == "higher":
            worse = after < before * (1 - bound)
        else:
            worse = after > before * (1 + bound)
        verdict = "WORSE" if worse else "ok"
        print(f"{workload} {name}: {before:.3f} ({prev['pr']}) -> {after:.3f} ({cur['pr']}), "
              f"bound {bound:.1%}: {verdict}")
        failed |= worse
sys.exit(1 if failed else 0)
PY
