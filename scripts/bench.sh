#!/usr/bin/env bash
# Perf-trajectory harness for the simulation substrate.
#
#   scripts/bench.sh              # append one entry to BENCH_sim.json
#   scripts/bench.sh --check      # run benches, print entry, do not append
#
# Times the two headline figure benches (fig06, fig09) and records the
# large-N launch-rate series, the fig10 recover scenario, the abl_staging
# cold-vs-warm sweep and the fig07 elastic scenario, and appends one JSON
# entry to BENCH_sim.json keyed by commit. Host cost per layer is
# perfbench's job (perfbench/run.py). The file is an append-only trajectory:
# one entry per measurement, never rewritten, so regressions are visible
# as a time series across PRs. Numbers are host-dependent — compare
# entries only within one machine (the `host` field).
set -euo pipefail
cd "$(dirname "$0")/.."

append=1
[[ "${1:-}" == "--check" ]] && append=0

BUILD="${BUILD:-build}"
OUT="BENCH_sim.json"

if [[ ! -x "$BUILD/bench/fig06_seq_rate" ]]; then
  echo "bench.sh: $BUILD/bench/fig06_seq_rate not built (run scripts/check.sh first)" >&2
  exit 1
fi

wall_ns() {  # wall-clock of one figure bench at default scale, output discarded
  local t0 t1
  t0=$(date +%s%N)
  env -u JETS_LARGE_N -u JETS_STAGING -u JETS_ELASTIC "$1" > /dev/null
  t1=$(date +%s%N)
  echo $((t1 - t0))
}

echo "== tracing byte-identity: fig06 with and without JETS_TRACE =="
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
"$BUILD/bench/fig06_seq_rate" > "$trace_dir/plain.txt"
JETS_TRACE=1 "$BUILD/bench/fig06_seq_rate" > "$trace_dir/traced.txt"
if ! cmp -s "$trace_dir/plain.txt" \
            <(grep -v '^# obs' "$trace_dir/traced.txt"); then
  echo "bench.sh: tracing perturbed fig06_seq_rate output" >&2
  diff "$trace_dir/plain.txt" <(grep -v '^# obs' "$trace_dir/traced.txt") >&2 || true
  exit 1
fi
echo "tracing byte-identity: OK"

echo "== figure benches (wall clock) =="
fig06_ns=$(wall_ns "$BUILD/bench/fig06_seq_rate")
fig09_ns=$(wall_ns "$BUILD/bench/fig09_bgp_util")

# Large-N launch-rate series (the tentpole metric): run fig06 through 10^5
# workers and fig13 at 10^4 by default — '# largeN key=value' rows are the
# machine-readable series. JETS_BENCH_LARGE_N=6 cranks fig06 to the
# million-worker point (~80 s extra on a fast host).
large_exp="${JETS_BENCH_LARGE_N:-5}"
echo "== large-N launch-rate series (JETS_LARGE_N=$large_exp) =="
large_n_txt="$trace_dir/large_n.txt"
JETS_LARGE_N="$large_exp" "$BUILD/bench/fig06_seq_rate" \
  | sed -n 's/^# largeN /fig06 /p' > "$large_n_txt"
JETS_LARGE_N=4 "$BUILD/bench/fig13_load_level" \
  | sed -n 's/^# largeN /fig13 /p' >> "$large_n_txt"
cat "$large_n_txt"

# Crash-recovery trajectory: the fig10 recover scenario's MTTR and
# rescued/restarted counters, so recovery-path regressions show up in the
# same time series as the launch-rate numbers.
echo "== crash-recovery scenario (fig10 recover) =="
recover_txt="$trace_dir/recover.txt"
JETS_RECOVER=1 "$BUILD/bench/fig10_faulty" \
  | sed -n 's/^# recover //p' > "$recover_txt"
cat "$recover_txt"

# Input-staging trajectory: the abl_staging cold-vs-warm sweep's pushed
# bytes, warm-hit rate, and dedup factor (JETS_STAGING), so CAS and
# replication-planner regressions show in the same time series.
echo "== input-staging sweep (abl_staging, JETS_STAGING=1) =="
staging_txt="$trace_dir/staging.txt"
JETS_STAGING=1 "$BUILD/bench/abl_staging" \
  | sed -n 's/^# staging \([0-9]\)/\1/p' > "$staging_txt"
cat "$staging_txt"

# Elastic-allocation trajectory: the fig07 elastic scenario's ramp time,
# pool peak, scale-out/in and drain counts (JETS_ELASTIC), so controller
# regressions show in the same time series.
echo "== elastic scenario (fig07, JETS_ELASTIC=1) =="
elastic_txt="$trace_dir/elastic.txt"
JETS_ELASTIC=1 "$BUILD/bench/fig07_cluster_util" \
  | sed -n 's/^# elastic //p' > "$elastic_txt"
cat "$elastic_txt"

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
date_iso=$(date -u +%Y-%m-%dT%H:%M:%SZ)

entry=$(python3 - "$commit" "$date_iso" "$fig06_ns" "$fig09_ns" \
        "$large_n_txt" "$recover_txt" "$staging_txt" "$elastic_txt" <<'PY'
import json, platform, sys

(commit, date_iso, fig06_ns, fig09_ns, large_n_path, recover_path,
 staging_path, elastic_path) = sys.argv[1:9]

# Rows: "pass=<name> k=v ..." from the fig10 recover trailer; numbers are
# kept numeric, yes/NO flags become booleans.
recovery = {}
with open(recover_path) as f:
    for line in f:
        toks = line.split()
        if not toks or not toks[0].startswith("pass="):
            continue
        point = {}
        for kv in toks[1:]:
            k, _, v = kv.partition("=")
            if v in ("yes", "NO"):
                point[k] = v == "yes"
            else:
                try:
                    point[k] = float(v) if "." in v else int(v, 0)
                except ValueError:
                    point[k] = v
        recovery[toks[0].partition("=")[2]] = point

# Rows: "<nodes> <cold_mb> <warm_mb> <warm_rate> <cold_mksp> <warm_mksp>
# <dedup_x>" from the abl_staging cold-vs-warm sweep.
staging = []
with open(staging_path) as f:
    for line in f:
        toks = line.split()
        if len(toks) != 7:
            continue
        staging.append({
            "nodes": int(toks[0]),
            "cold_pushed_mb": float(toks[1]),
            "warm_pushed_mb": float(toks[2]),
            "warm_hit_rate": float(toks[3]),
            "cold_makespan_s": float(toks[4]),
            "warm_makespan_s": float(toks[5]),
            "dedup_x": float(toks[6]),
        })

# Rows: "key=value", one per line, from the fig07 elastic scenario.
elastic = {}
with open(elastic_path) as f:
    for line in f:
        k, sep, v = line.strip().partition("=")
        if not sep:
            continue
        try:
            elastic[k] = float(v) if "." in v else int(v)
        except ValueError:
            elastic[k] = v

# Rows: "<bench> workers=N jobs=N tasks_per_s=R makespan_s=S [utilization=U]"
large_n = []
with open(large_n_path) as f:
    for line in f:
        toks = line.split()
        if not toks:
            continue
        point = {"bench": toks[0]}
        for kv in toks[1:]:
            k, _, v = kv.partition("=")
            point[k] = int(v) if k in ("workers", "jobs") else float(v)
        large_n.append(point)

entry = {
    "commit": commit,
    "date": date_iso,
    "host": platform.node(),
    "figures_wall_ns": {
        "fig06_seq_rate": int(fig06_ns),
        "fig09_bgp_util": int(fig09_ns),
    },
    "large_n": large_n,
    "recovery": recovery,
    "staging": staging,
    "elastic": elastic,
}
print(json.dumps(entry, indent=2))
PY
)

echo "$entry"

if [[ "$append" == 1 ]]; then
  python3 - "$OUT" <<PY
import json, sys

out = sys.argv[1]
entry = json.loads('''$entry''')
try:
    with open(out) as f:
        trajectory = json.load(f)
except FileNotFoundError:
    trajectory = []
trajectory.append(entry)
with open(out, "w") as f:
    json.dump(trajectory, f, indent=2)
    f.write("\n")
print(f"bench.sh: appended entry for {entry['commit']} to {out} "
      f"({len(trajectory)} entries)")
PY
fi
