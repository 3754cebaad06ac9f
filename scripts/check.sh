#!/usr/bin/env bash
# Tier-1 verification plus the fault/retry suites under sanitizers.
#
#   scripts/check.sh            # default preset: full suite (tier-1 verify)
#   scripts/check.sh --asan     # also build asan-ubsan and run chaos+retry
#   scripts/check.sh --all      # both of the above
#
# Both presets build with -Werror (JETS_WERROR=ON in CMakePresets.json),
# so a warning anywhere in src/, bench/, examples/ or tests/ fails the
# lane. The default preset run is the ROADMAP tier-1 gate: every ctest entry
# (labels unit, property, chaos, retry, obs, scale, recovery, staging,
# elastic, rpc) must pass, and the
# determinism smoke re-runs fig06_seq_rate twice and byte-diffs the
# output — the engine's event order must be a pure function of the
# inputs — then re-runs it with JETS_TRACE=1 and checks that, with the
# '# obs' report lines stripped, the traced output is byte-identical to
# the untraced run (tracing must not perturb the simulation). On top of
# that, scheduler_equiv.sh replays all 15 figure benches against the
# committed golden manifest (hot-path refactors must not move a byte),
# the host-cost benchmark self-tests (perfbench/run.py --self-test: it
# builds src/ with its own -Wall -Wextra -Wpedantic flags, then checks
# that counts and digests repeat, that traced and untraced passes agree
# on the modelled outputs, and that the metric names match
# BENCHMARK.json), the allocation census (scripts/alloc_census.sh) takes
# one small pass each of seq_flood, mpi_gang (the PMI and MPI wire-up
# path) and swift_rem (the Swift dataflow path) and each must agree with
# its pass's own allocation count to 0.1 %, and the scale suite re-runs
# at 10^5 workers — release
# build only, under a wall-clock budget. The default preset also runs a
# crash-recovery smoke: the fig10 recover scenario (JETS_RECOVER=1) must
# report replay digest/snapshot byte-equality and verbatim preservation of
# pre-crash settled records, and a staging smoke: the JETS_STAGING=1
# abl_staging sweep must be byte-identical across two runs (warm-cache
# determinism) and its cold/warm dedup factor at least 10x, and an
# elastic smoke: the
# JETS_ELASTIC=1 fig07 scenario must be byte-identical across two runs and
# lose zero jobs to walltime expiry under allocation chaos. The sanitizer
# pass re-runs the fault-heavy
# suites (-L chaos and -L retry), the recovery suite (-L recovery, whose
# codec tests fuzz the snapshot reader's bounds checks), the staging
# suite (-L staging), plus the
# property suites (including the
# SoA-table churn differentials), the scale suite at its small default N,
# the observability suite (-L obs), the RPC conformance + fuzz battery
# (-L rpc, whose malformed-frame corpus is the decoders' memory-safety
# oracle), and every unit test (-L unit): the engine/sync/net tests
# exercise the slab allocators' recycling paths and the intrusive waiter
# lists (nodes living in suspended frames) hardest. The sanitizer
# pass also replays scheduler_equiv.sh against the asan build: the typed
# RPC layer must keep all 15 figures byte-identical under instrumentation
# too (same simulation, same bytes).
set -euo pipefail
cd "$(dirname "$0")/.."

run_default=1
run_asan=0
for arg in "$@"; do
  case "$arg" in
    --asan) run_default=0; run_asan=1 ;;
    --all) run_default=1; run_asan=1 ;;
    *) echo "usage: $0 [--asan|--all]" >&2; exit 2 ;;
  esac
done

if [[ "$run_default" == 1 ]]; then
  echo "== tier-1 verify (default preset) =="
  cmake --preset default
  cmake --build --preset default -j "$(nproc)"
  ctest --preset default -j "$(nproc)"

  echo "== determinism smoke: fig06_seq_rate twice, byte-identical =="
  tmpdir="$(mktemp -d)"
  trap 'rm -rf "$tmpdir"' EXIT
  ./build/bench/fig06_seq_rate > "$tmpdir/fig06_a.txt"
  ./build/bench/fig06_seq_rate > "$tmpdir/fig06_b.txt"
  if ! cmp -s "$tmpdir/fig06_a.txt" "$tmpdir/fig06_b.txt"; then
    echo "determinism smoke FAILED: fig06_seq_rate output differs between runs" >&2
    diff "$tmpdir/fig06_a.txt" "$tmpdir/fig06_b.txt" >&2 || true
    exit 1
  fi
  echo "determinism smoke: OK"

  echo "== tracing smoke: JETS_TRACE=1 fig06 minus '# obs' lines, byte-identical =="
  JETS_TRACE=1 ./build/bench/fig06_seq_rate > "$tmpdir/fig06_traced.txt"
  grep -v '^# obs' "$tmpdir/fig06_traced.txt" > "$tmpdir/fig06_traced_stripped.txt"
  if ! cmp -s "$tmpdir/fig06_a.txt" "$tmpdir/fig06_traced_stripped.txt"; then
    echo "tracing smoke FAILED: tracing perturbed fig06_seq_rate output" >&2
    diff "$tmpdir/fig06_a.txt" "$tmpdir/fig06_traced_stripped.txt" >&2 || true
    exit 1
  fi
  if ! grep -q '^# obs phase' "$tmpdir/fig06_traced.txt"; then
    echo "tracing smoke FAILED: no '# obs' phase table in traced output" >&2
    exit 1
  fi
  echo "tracing smoke: OK"

  echo "== crash-recovery smoke: fig10 recover scenario (checkpoint/restore) =="
  JETS_RECOVER=1 ./build/bench/fig10_faulty > "$tmpdir/fig10_recover.txt"
  for want in 'digest_match=yes' 'snapshot_match=yes' 'preserved_match=yes'; do
    if ! grep -q "$want" "$tmpdir/fig10_recover.txt"; then
      echo "crash-recovery smoke FAILED: missing '$want'" >&2
      grep '^# ' "$tmpdir/fig10_recover.txt" >&2 || true
      exit 1
    fi
  done
  echo "crash-recovery smoke: OK"

  echo "== staging lane: ctest -L staging (release) =="
  ctest --preset default --no-tests=error -L staging -j "$(nproc)"

  echo "== staging smoke: JETS_STAGING=1 abl_staging twice, byte-identical, dedup >= 10x =="
  JETS_STAGING=1 ./build/bench/abl_staging > "$tmpdir/staging_a.txt"
  JETS_STAGING=1 ./build/bench/abl_staging > "$tmpdir/staging_b.txt"
  if ! cmp -s "$tmpdir/staging_a.txt" "$tmpdir/staging_b.txt"; then
    echo "staging smoke FAILED: warm-cache run not deterministic across reruns" >&2
    diff "$tmpdir/staging_a.txt" "$tmpdir/staging_b.txt" >&2 || true
    exit 1
  fi
  # Every '# staging <nodes> ...' data row's last column is the cold/warm
  # dedup factor; the CAS + replication planner must buy at least 10x.
  if ! awk '/^# staging [0-9]/ { rows++; if ($NF + 0 < 10) bad = 1 } \
            END { exit (bad || rows == 0) }' "$tmpdir/staging_a.txt"; then
    echo "staging smoke FAILED: dedup factor below 10x (or no sweep rows)" >&2
    grep '^# staging' "$tmpdir/staging_a.txt" >&2 || true
    exit 1
  fi
  echo "staging smoke: OK"

  echo "== elastic lane: ctest -L elastic (release) =="
  ctest --preset default --no-tests=error -L elastic -j "$(nproc)"

  echo "== rpc lane: ctest -L rpc (release) =="
  ctest --preset default --no-tests=error -L rpc -j "$(nproc)"

  echo "== elastic smoke: JETS_ELASTIC=1 fig07 twice, byte-identical, zero jobs lost =="
  JETS_ELASTIC=1 ./build/bench/fig07_cluster_util > "$tmpdir/elastic_a.txt"
  JETS_ELASTIC=1 ./build/bench/fig07_cluster_util > "$tmpdir/elastic_b.txt"
  if ! cmp -s "$tmpdir/elastic_a.txt" "$tmpdir/elastic_b.txt"; then
    echo "elastic smoke FAILED: elastic run not deterministic across reruns" >&2
    diff "$tmpdir/elastic_a.txt" "$tmpdir/elastic_b.txt" >&2 || true
    exit 1
  fi
  if ! grep -q '^# elastic jobs_lost_to_walltime=0$' "$tmpdir/elastic_a.txt"; then
    echo "elastic smoke FAILED: jobs lost to walltime expiry (or no elastic rows)" >&2
    grep '^# elastic' "$tmpdir/elastic_a.txt" >&2 || true
    exit 1
  fi
  if ! grep -q '^# elastic failed=0$' "$tmpdir/elastic_a.txt"; then
    echo "elastic smoke FAILED: jobs failed under elastic chaos" >&2
    grep '^# elastic' "$tmpdir/elastic_a.txt" >&2 || true
    exit 1
  fi
  echo "elastic smoke: OK"

  echo "== scheduler equivalence: 15 figures vs golden manifest =="
  ./scripts/scheduler_equiv.sh build

  echo "== benchmark self-test: perfbench builds and repeats its counts =="
  python3 perfbench/run.py --self-test

  echo "== allocation census: seq_flood --small, census total = pass allocs (0.1 %) =="
  ./scripts/alloc_census.sh seq_flood --small --top 10
  echo "== allocation census: mpi_gang --small, census total = pass allocs (0.1 %) =="
  ./scripts/alloc_census.sh mpi_gang --small --top 10
  echo "== allocation census: swift_rem --small, census total = pass allocs (0.1 %) =="
  ./scripts/alloc_census.sh swift_rem --small --top 10

  echo "== scale suite at 10^5 workers (release build, 10 min budget) =="
  JETS_SCALE_N=100000 timeout 600 ./build/tests/scale_test
  echo "large-N scale suite: OK"
fi

if [[ "$run_asan" == 1 ]]; then
  echo "== chaos + retry + property + unit under ASan/UBSan =="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$(nproc)"
  ctest --preset asan-ubsan --no-tests=error -L chaos -j "$(nproc)"
  ctest --preset asan-ubsan --no-tests=error -L retry -j "$(nproc)"
  ctest --preset asan-ubsan --no-tests=error -L property -j "$(nproc)"
  ctest --preset asan-ubsan --no-tests=error -L scale -j "$(nproc)"
  ctest --preset asan-ubsan --no-tests=error -L obs -j "$(nproc)"
  ctest --preset asan-ubsan --no-tests=error -L recovery -j "$(nproc)"
  ctest --preset asan-ubsan --no-tests=error -L staging -j "$(nproc)"
  ctest --preset asan-ubsan --no-tests=error -L elastic -j "$(nproc)"
  ctest --preset asan-ubsan --no-tests=error -L rpc -j "$(nproc)"
  ctest --preset asan-ubsan --no-tests=error -L unit -j "$(nproc)"

  echo "== scheduler equivalence vs golden manifest (asan build) =="
  ./scripts/scheduler_equiv.sh build-asan
fi

echo "check.sh: OK"
