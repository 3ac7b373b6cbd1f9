#!/usr/bin/env bash
# Compares the serving benchmark (BENCHMARK.json) between a parent revision
# and the working tree, in interleaved pairs.
#
#   bash scripts/bench_pairs.sh <parent-ref> [--pairs n] [--seconds s] \
#       [workload ...]
#
# The parent is checked out as a temporary `git worktree` (removed on exit).
# For each workload (default: every workload BENCHMARK.json lists), pair i
# runs `benchmark/run.sh --workload w --seed i --seconds s` once on each
# side, the parent first in odd pairs and the working tree first in even
# ones, so drift in machine load hits both sides alike. Defaults: 10 pairs,
# the BENCHMARK.json run length. Each side builds its own benchmark under its
# own build-bench/ on its first run. Run logs go to build-bench/pairs/.
#
# Each run's last stdout line is its JSON metrics object. For every
# end-to-end metric and workload the script prints both medians, the
# change's relative move (positive = better), the parent's interquartile
# range as a share of its median, the metric's bound, and a verdict:
#   unresolved  the parent's spread exceeds the bound: the pairs cannot tell
#   worse       the change's median is worse than the parent's by more than
#               the bound
#   better      better in the median by more than the parent's spread, and
#               in at least 9 of every 10 pairs
#   within      none of these
# It also checks that every run reports "correct": true with no failed
# requests, and that the deterministic metrics (sim_*, bytes_per_token) are
# equal within each pair. Exits non-zero when a metric is worse, a run is
# not correct or failed requests, or a deterministic metric differs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage="usage: bench_pairs.sh <parent-ref> [--pairs n] [--seconds s] [workload ...]"
if [ $# -lt 1 ] || [ "${1#-}" != "$1" ]; then
  echo "$usage" >&2
  exit 2
fi
parent_ref="$1"
shift
pairs=10
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs | --seconds)
      if [ $# -lt 2 ]; then
        echo "$usage" >&2
        exit 2
      fi
      if [ "$1" = --pairs ]; then pairs="$2"; else seconds="$2"; fi
      shift 2
      ;;
    -*) echo "$usage" >&2; exit 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' \
    "$root/BENCHMARK.json")
fi

parent_commit="$(git -C "$root" rev-parse --verify "$parent_ref^{commit}")"
scratch="$(mktemp -d)"
parent="$scratch/parent"
cleanup() {
  rm -rf "$scratch"
  git -C "$root" worktree prune
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$parent" "$parent_commit" >&2

out="$root/build-bench/pairs"
rm -rf "$out"
mkdir -p "$out"
run_side() {  # side dir, label, workload, pair index
  local log="$out/$3-$2-$4"
  echo "bench_pairs: $3 pair $4 $2" >&2
  bash "$1/benchmark/run.sh" --workload "$3" --seed "$4" \
    --seconds "$seconds" > "$log.out" 2> "$log.err"
}
for w in "${workloads[@]}"; do
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
      run_side "$parent" parent "$w" "$i"
      run_side "$root" change "$w" "$i"
    else
      run_side "$root" change "$w" "$i"
      run_side "$parent" parent "$w" "$i"
    fi
  done
done

python3 - "$root/BENCHMARK.json" "$out" "$pairs" "${workloads[@]}" <<'EOF'
import json, os, statistics, sys

spec = json.load(open(sys.argv[1]))
out, pairs, workloads = sys.argv[2], int(sys.argv[3]), sys.argv[4:]


def load(w, side, i):
    path = os.path.join(out, f"{w}-{side}-{i}.out")
    return json.loads(open(path).read().strip().splitlines()[-1])


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


ok = True
print(f"{'workload':<10} {'metric':<20} {'parent':>11} {'change':>11} "
      f"{'move':>7} {'p.iqr':>6} {'bound':>6}  verdict")
for w in workloads:
    runs = {side: [load(w, side, i) for i in range(1, pairs + 1)]
            for side in ("parent", "change")}
    for side, results in runs.items():
        bad = [i + 1 for i, r in enumerate(results)
               if r.get("correct") is not True or r.get("failed", 0) != 0]
        if bad:
            ok = False
            print(f"{w}: {side} runs not correct or with failures: pairs {bad}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        if name.startswith("sim_") or name == "bytes_per_token":
            differ = [i + 1 for i in range(pairs) if p[i] != c[i]]
            if differ:
                ok = False
                print(f"{w}: deterministic {name} differs in pairs {differ}")
        pm, cm = statistics.median(p), statistics.median(c)
        base = abs(pm) if pm != 0 else 1.0
        move = sign * (cm - pm) / base
        spread = iqr(p) / base
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        if spread > bound:
            verdict = "unresolved"
        elif move < -bound:
            verdict = "worse"
            ok = False
        elif move > spread and wins * 10 >= 9 * pairs:
            verdict = "better"
        else:
            verdict = "within"
        print(f"{w:<10} {name:<20} {pm:>11.4g} {cm:>11.4g} {move:>+7.1%} "
              f"{spread:>6.1%} {bound:>6.0%}  {verdict}")
sys.exit(0 if ok else 1)
EOF
