#!/usr/bin/env bash
# Regenerates BENCH_serving_sim.json: the simulated metrics (sim_*) and
# bytes_per_token of every serving-benchmark workload at seed 1. Both are a
# pure function of the seed (benchmark/README.md), so a change that moves the
# cost model, admission or the container format shows up as a diff of this
# file, and a refactor that must not move them shows none.
#
#   bash scripts/serving_sim_snapshot.sh [out.json]   # default: the repo copy
#
# Each workload is one `bash benchmark/run.sh --seed 1 --seconds 1` run (the
# simulated window is served in full whatever --seconds says); the script
# fails unless every run reports "correct": true. Values keep 9 significant
# digits.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${1:-$root/BENCH_serving_sim.json}"
runs="$(mktemp -d)"
trap 'rm -rf "$runs"' EXIT

workloads=(mixed selective heavy sharded)
for w in "${workloads[@]}"; do
  bash "$root/benchmark/run.sh" --workload "$w" --seed 1 --seconds 1 \
    > "$runs/$w.txt"
done

python3 - "$runs" "$out" "${workloads[@]}" <<'EOF'
import json
import sys

runs, out, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
lines = []
for w in workloads:
    with open(f"{runs}/{w}.txt") as f:
        run = json.loads(f.read().splitlines()[-1])
    if run["correct"] is not True:
        sys.exit(f"serving_sim_snapshot: {w} did not report correct results")
    metrics = {name: m["value"] for name, m in run["metrics"].items()
               if name.startswith("sim_") or name == "bytes_per_token"}
    fields = ", ".join(f'"{name}": {value:.9g}'
                       for name, value in sorted(metrics.items()))
    lines.append(f'    "{w}": {{{fields}}}')
with open(out, "w") as f:
    f.write('{\n  "bench": "serving_sim",\n  "seed": 1,\n  "workloads": {\n')
    f.write(",\n".join(lines))
    f.write("\n  }\n}\n")
EOF
