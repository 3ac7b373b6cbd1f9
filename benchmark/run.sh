#!/usr/bin/env bash
# Builds the serving benchmark (Release, under build-bench/ at the repository
# root) and runs one workload. Build output goes to stderr; the benchmark's
# metrics go to stdout, with one JSON object as the last line.
#
#   bash benchmark/run.sh --workload <mixed|selective|heavy|sharded> \
#       --seed <n> [--seconds <s>] [--trace <0|1>]
#
# --trace 1 writes build-bench/trace-<workload>-<seed>.json and reports the
# per-layer metrics instead of the end-to-end ones.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"
workload=""
seed=1
seconds=15
trace=0
while [ $# -gt 0 ]; do
  if [ $# -lt 2 ]; then
    echo "run.sh: $1 needs a value" >&2
    exit 2
  fi
  case "$1" in
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --trace) trace="$2" ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done

cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j 4 --target gtadoc_bench >&2

args=(--workload "$workload" --seed "$seed" --seconds "$seconds")
if [ "$trace" = 1 ]; then
  args+=(--trace "$build/trace-$workload-$seed.json")
fi
exec "$build/gtadoc_bench" "${args[@]}"
