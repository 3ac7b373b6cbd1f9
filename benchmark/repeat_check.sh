#!/usr/bin/env bash
# Repeatability check: runs each workload as two interleaved sets of runs on
# one seed, then checks that
#   - the deterministic metrics (simulated metrics and bytes_per_token) are
#     bit-identical across every run, and
#   - each host metric's median in the second set is within the metric's
#     BENCHMARK.json bound of the first set's median.
# Exits non-zero when a check fails or a run reports a failure.
#
#   bash benchmark/repeat_check.sh [--seed n] [--runs n] [--seconds s] \
#       [workload ...]
#
# --runs is the size of each set (default 5). Run logs go to
# build-bench/repeat/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seed=1
runs=5
seconds=15
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(mixed selective heavy sharded)
fi

out="$root/build-bench/repeat"
rm -rf "$out"
mkdir -p "$out"
for w in "${workloads[@]}"; do
  for i in $(seq 1 $((2 * runs))); do
    # Odd runs form set A, even runs set B, so drift hits both sets alike.
    set_name=$([ $((i % 2)) -eq 1 ] && echo A || echo B)
    log="$out/$w-$set_name-$i"
    echo "repeat_check: $w run $i (set $set_name)" >&2
    bash "$root/benchmark/run.sh" --workload "$w" --seed "$seed" \
      --seconds "$seconds" > "$log.out" 2> "$log.err"
  done
done

python3 - "$root/BENCHMARK.json" "$out" "${workloads[@]}" <<'EOF'
import glob, json, os, statistics, sys

spec = json.load(open(sys.argv[1]))
out, workloads = sys.argv[2], sys.argv[3:]
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
deterministic = {"sim_rps", "sim_latency_p50_ms", "sim_latency_p95_ms",
                 "bytes_per_token"}
ok = True
for w in workloads:
    sets = {"A": [], "B": []}
    for path in sorted(glob.glob(os.path.join(out, w + "-*.out"))):
        result = json.loads(open(path).read().strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"{w}: {os.path.basename(path)} reported failures")
            ok = False
        sets[path.rsplit("-", 2)[1]].append(result["metrics"])
    print(f"== {w}: {len(sets['A'])} + {len(sets['B'])} runs")
    for name, bound in bounds.items():
        a = [m[name]["value"] for m in sets["A"]]
        b = [m[name]["value"] for m in sets["B"]]
        if name in deterministic:
            same = len(set(a + b)) == 1
            ok &= same
            print(f"  {name:22s} {'identical' if same else 'DIFFERS'}: "
                  f"{sorted(set(a + b))[:3]}")
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        drift = abs(mb - ma) / ma
        within = drift <= bound
        ok &= within
        print(f"  {name:22s} median A {ma:.6g} B {mb:.6g} drift {drift:.4f} "
              f"bound {bound} {'ok' if within else 'OUT OF BOUND'}")
print("repeat_check:", "OK" if ok else "FAILED")
sys.exit(0 if ok else 1)
EOF
