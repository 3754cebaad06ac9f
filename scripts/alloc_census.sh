#!/usr/bin/env bash
# Allocation census of one jets_perfbench pass: where a workload's heap
# allocations come from, charged to the program's own code.
#
#   scripts/alloc_census.sh <workload> [--small] [--seed N] [--top N]
#
# Builds perfbench (the tree perfbench/run.py uses, .bench_build/) and the
# LD_PRELOAD shim in alloc_census/shim.c, runs one pass of <workload> under
# the shim, and prints the top allocation sites per job (alloc_census/
# resolve.py, through addr2line). Fails if the census's total and the
# pass's own allocation count disagree by more than 0.1 %, which checks
# the shim and the pass's counter against each other. Changes no source.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <workload> [--small] [--seed N] [--top N]" >&2
  exit 2
fi
workload="$1"
shift
pass_args=(--workload "$workload" --seed 1)
top=20
while [[ $# -gt 0 ]]; do
  case "$1" in
    --small) pass_args+=(--small); shift ;;
    --seed) pass_args[3]="$2"; shift 2 ;;
    --top) top="$2"; shift 2 ;;
    *) echo "usage: $0 <workload> [--small] [--seed N] [--top N]" >&2; exit 2 ;;
  esac
done

bench_dir="$PWD/.bench_build/perfbench"
census_dir="$PWD/.bench_build/alloc_census"
mkdir -p "$census_dir"
if [[ ! -f "$bench_dir/CMakeCache.txt" ]]; then
  cmake -S perfbench -B "$bench_dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$bench_dir" -j "$(nproc)" >&2
cc -O2 -Wall -Wextra -shared -fPIC -o "$census_dir/shim.so" \
  scripts/alloc_census/shim.c -ldl

LD_PRELOAD="$census_dir/shim.so" "$bench_dir/jets_perfbench" "${pass_args[@]}" \
  > "$census_dir/pass.json" 2> "$census_dir/census.txt"
python3 scripts/alloc_census/resolve.py --pass "$census_dir/pass.json" \
  --census "$census_dir/census.txt" --top "$top"
