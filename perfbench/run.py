#!/usr/bin/env python3
"""Host-cost benchmark for the JETS simulator (see perfbench/README.md).

Builds perfbench/ (which compiles the simulator from src/) into
.bench_build/, then runs passes of one workload for a fixed time, one
process per pass, and prints the metrics as one JSON object on the last
line of standard output:

    python3 perfbench/run.py --workload seq_flood --seed 7 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics. --self-test checks the
benchmark itself at reduced sizes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "jets_perfbench")
WORKLOADS = ("seq_flood", "mpi_gang", "swift_rem", "recover_staged")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_pass(workload, seed, traced=False, small=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if small:
        cmd.append("--small")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def model_values(p):
    return {k: p[k] for k in ("model.tasks_per_s", "model.utilization", "model.mttr_s")}


def check_pass(workload, seed, p, ref):
    """Jobs of this pass that count as failed: unsettled or not done, or all
    of them when the outputs differ from the reference."""
    jobs = int(p["jobs"])
    failed = jobs - int(p["done"])
    if p["settled_once"] != 1:
        failed = jobs
    r = ref["workloads"][workload]
    if not r["seeded"] or seed == ref["seed"]:
        if p["digest"] != r["digest"] or model_values(p) != r["model"]:
            failed = jobs
    # The figures' golden rows, at the precision the figures print them.
    for key, (want, digits) in r.get("golden", {}).items():
        if round(p[key], digits) != want:
            failed = jobs
    return failed


def measure(workload, seed, seconds, traced):
    """Runs passes until `seconds` have elapsed (at least MIN_PASSES, or one
    pair when traced). With `traced`, every untraced pass is followed by a
    traced one."""
    plain, tracedp = [], []
    min_passes = 1 if traced else MIN_PASSES
    start = time.monotonic()
    while len(plain) < min_passes or time.monotonic() - start < seconds:
        plain.append(run_pass(workload, seed))
        if traced:
            tracedp.append(run_pass(workload, seed, traced=True))
    return plain, tracedp


def med(values):
    return statistics.median(values)


def end_to_end(passes):
    # Other tenants of the host only ever slow a pass down, and how much
    # drifts over tens of seconds, so the fastest pass of a run is the
    # steadiest estimate of the program's own cost (see README.md).
    return {
        "wall_s": (min(p["wall_s"] for p in passes), "s"),
        "setup_s": (med(p["setup_s"] for p in passes), "s"),
        "sim_jobs_per_s": (max(p["done"] / (p["wall_s"] - p["setup_s"]) for p in passes), "1/s"),
        "allocs_per_job": (med(p["allocs"] / p["jobs"] for p in passes), "count"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in passes), "MB"),
    }


def layers(p):
    """Layer names of a traced pass, from its "layer.<name>.samples" keys."""
    return [k[len("layer."):-len(".samples")] for k in p
            if k.startswith("layer.") and k.endswith(".samples")]


def per_layer(plain, traced):
    jobs = sum(p["jobs"] for p in traced)
    samples = {l: sum(p[f"layer.{l}.samples"] for p in traced) for l in layers(traced[0])}
    total_samples = sum(samples.values()) or 1
    m = {}
    for l in samples:
        m[f"{l}.cpu_frac"] = (samples[l] / total_samples, "ratio")
        m[f"{l}.allocs_per_job"] = (sum(p[f"layer.{l}.allocs"] for p in traced) / jobs, "count")

    def count(key):
        return med(p.get(key, 0) for p in plain)

    def per_job(key):
        return med(p.get(key, 0) / p["jobs"] for p in plain)

    def frac(num, den):
        return med((p[num] / p[den]) if p[den] else 0 for p in plain)

    m.update({
        "sim.events": (count("sim.events"), "count"),
        "sim.events_per_s": (med(p["sim.events"] / p["wall_s"] for p in plain), "1/s"),
        "sim.slab_high_water": (count("sim.slab_high_water"), "count"),
        "sim.cancelled_events": (count("sim.cancelled_events"), "count"),
        "sim.compactions": (count("sim.compactions"), "count"),
        "core.setup.register_s": (count("core.setup.register_s"), "s"),
        "core.snapshot.encode_s": (count("core.snapshot.encode_s"), "s"),
        "core.snapshot.decode_s": (count("core.snapshot.decode_s"), "s"),
        "core.snapshot.mb": (count("core.snapshot.mb"), "MB"),
        "core.staging.warm_hit_frac": (frac("core.staging.warm_hits", "core.staging.requests"), "ratio"),
        "core.staging.pushed_mb": (count("core.staging.pushed_bytes") / 1e6, "MB"),
        "core.retry.scheduled": (count("core.retry.scheduled"), "count"),
        "net.rpc.calls_per_job": (per_job("net.rpc.calls"), "count"),
        "net.rpc.notifies_per_job": (per_job("net.rpc.notifies"), "count"),
        "net.arena.flushes_per_job": (per_job("net.arena.flushes"), "count"),
        "net.arena.coalesced_frac": (med(
            p["net.arena.coalesced"] / (p["net.arena.flushes"] + p["net.arena.coalesced"])
            if p["net.arena.flushes"] else 0 for p in plain), "ratio"),
        "net.arena.high_water": (count("net.arena.high_water"), "count"),
        "swift.build_s": (count("swift.build_s"), "s"),
        "obs.trace_overhead_frac": (
            med(p["wall_s"] for p in traced) / med(p["wall_s"] for p in plain) - 1, "ratio"),
        "model.tasks_per_s": (traced[0]["model.tasks_per_s"], "1/s"),
        "model.utilization": (traced[0]["model.utilization"], "ratio"),
        "model.mttr_s": (traced[0]["model.mttr_s"], "s"),
    })
    m.update({k: (v, "ms") for k, v in traced[0].items() if k.startswith("model.phase.")})
    return m


def benchmark(args):
    build()
    ref = load_reference()
    plain, traced = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    passes = plain + traced
    failed = sum(check_pass(args.workload, args.seed, p, ref) for p in passes)
    # Tracing must not perturb the modelled run.
    for t in traced:
        if t["digest"] != plain[0]["digest"] or model_values(t) != model_values(plain[0]):
            failed += int(t["jobs"])
    metrics = per_layer(plain, traced) if args.trace == 1 else end_to_end(plain)
    return {
        "correct": failed == 0,
        "attempted": int(sum(p["jobs"] for p in passes)),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def self_test():
    """At reduced sizes, two passes of each workload must agree on every
    count and digest, traced and untraced passes on the modelled outputs,
    the per-layer CPU shares must sum to one, and the reported metric names
    must be the ones BENCHMARK.json declares."""
    build()
    problems = []
    declared = None
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        declared = ({m["name"] for m in spec["end_to_end"]},
                    {m["name"] for m in spec["per_layer"]})
    counts = ("digest", "sim.events", "sim.cancelled_events", "sim.slab_high_water",
              "net.rpc.calls", "net.rpc.notifies", "net.arena.flushes",
              "net.arena.coalesced", "net.arena.high_water", "jobs", "done")
    for w in WORKLOADS:
        a, b = run_pass(w, 1, small=True), run_pass(w, 1, small=True)
        ta, tb = run_pass(w, 1, traced=True, small=True), run_pass(w, 1, traced=True, small=True)
        for key in counts + ("allocs",):
            if a[key] != b[key]:
                problems.append(f"{w}: untraced {key} differs: {a[key]} vs {b[key]}")
        for key in counts + tuple(f"layer.{l}.allocs" for l in layers(ta)):
            if ta[key] != tb[key]:
                problems.append(f"{w}: traced {key} differs: {ta[key]} vs {tb[key]}")
        if model_values(a) != model_values(ta) or a["digest"] != ta["digest"]:
            problems.append(f"{w}: traced modelled outputs differ from untraced")
        if a["settled_once"] != 1 or a["done"] != a["jobs"]:
            problems.append(f"{w}: not every job settled exactly once")
        shares = per_layer([a, b], [ta, tb])
        if declared and (set(end_to_end([a, b])), set(shares)) != declared:
            problems.append(f"{w}: reported metrics differ from BENCHMARK.json")
        total = sum(v for k, (v, _) in shares.items() if k.endswith(".cpu_frac"))
        if abs(total - 1) > 1e-9:
            problems.append(f"{w}: cpu_frac sums to {total}")
        print(f"{w}: events={a['sim.events']:.0f} allocs={a['allocs']:.0f} "
              f"digest={a['digest']} cpu_frac_sum={total:.6f}")
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        print(json.dumps(benchmark(args)))
        return 0
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
