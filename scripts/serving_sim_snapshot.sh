#!/usr/bin/env bash
# Regenerates BENCH_serving_sim.json: the simulated metrics of every
# serving-benchmark workload at seed 1. Two groups are kept, both a pure
# function of the seed (benchmark/README.md):
#   - end to end: every sim_* metric and bytes_per_token;
#   - per layer: server.admission_sim_s and every plan_cache.*, scheduler.*,
#     dispatch.*, tadoc.*, gtadoc.*, gpu.* and sharding.* metric (admission,
#     probe cache, rolling scheduler, backend dispatch, both engines, device
#     admission and scatter/gather).
# So a change that moves the cost model, admission, dispatch or the
# container format shows up as a diff of this file, and a refactor that must
# not move them shows none.
#
#   bash scripts/serving_sim_snapshot.sh [out.json]   # default: the repo copy
#
# Each workload is one `bash benchmark/run.sh --seed 1 --seconds 1 --trace 1`
# run (the simulated window is served in full whatever --seconds says). A
# traced run reports the per-layer metrics in its final JSON line and prints
# the end-to-end ones as `name value unit` lines before it; both are read
# from those lines. The script fails unless every run reports
# "correct": true and reports metrics of both groups and every listed layer.
# Values keep 9 significant digits.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${1:-$root/BENCH_serving_sim.json}"
runs="$(mktemp -d)"
trap 'rm -rf "$runs"' EXIT

workloads=(mixed selective heavy sharded)
for w in "${workloads[@]}"; do
  bash "$root/benchmark/run.sh" --workload "$w" --seed 1 --seconds 1 \
    --trace 1 > "$runs/$w.txt"
done

python3 - "$runs" "$out" "${workloads[@]}" <<'EOF'
import json
import sys

runs, out, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
KEPT = ("sim_", "bytes_per_token", "server.admission_sim_s", "plan_cache.",
        "scheduler.", "dispatch.", "tadoc.", "gtadoc.", "gpu.", "sharding.")


blocks = []
for w in workloads:
    with open(f"{runs}/{w}.txt") as f:
        lines = f.read().splitlines()
    run = json.loads(lines[-1])
    if run["correct"] is not True:
        sys.exit(f"serving_sim_snapshot: {w} did not report correct results")
    metrics = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and fields[0].startswith(KEPT):
            metrics[fields[0]] = float(fields[1])
    for prefix in KEPT:
        if not any(name.startswith(prefix) for name in metrics):
            sys.exit(f"serving_sim_snapshot: {w} reported no {prefix} metric")
    fields = ",\n".join(f'      "{name}": {value:.9g}'
                        for name, value in sorted(metrics.items()))
    blocks.append(f'    "{w}": {{\n{fields}\n    }}')
with open(out, "w") as f:
    f.write('{\n  "bench": "serving_sim",\n  "seed": 1,\n  "workloads": {\n')
    f.write(",\n".join(blocks))
    f.write("\n  }\n}\n")
EOF
