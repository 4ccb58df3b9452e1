#!/usr/bin/env python3
"""Host-time benchmark for the JETS simulator.

    python3 perfbench/run.py --workload seq_dispatch|mpi_gang|swift_rem \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the benchmark program and the
simulator sources into .bench_build/. Each repetition runs in its own
process; repetitions continue until --seconds of host time is used.

--trace 0 prints the end-to-end metrics (tracing off): the medians of
wall_s, jobs_per_host_s, setup_s and peak_rss_mb over the repetitions.
--trace 1 alternates untraced and traced repetitions, times each layer's
probe once, and prints the per-layer metrics.

Every repetition's outputs are checked: all submitted jobs complete, no
rpc decode errors, no retries, the same record digest and simulated
makespan on every repetition (traced or not), and for the default seed the
pinned digest and makespan below. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md.
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
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

WORKLOADS = ("seq_dispatch", "mpi_gang", "swift_rem")
DEFAULT_SEED = 1
# Records digest and simulated makespan (ns) of DEFAULT_SEED. A change that
# alters the simulated schedule must update these on purpose.
PINNED = {
    "seq_dispatch": ("5520b795ec34a7c9", 14605571548),
    "mpi_gang": ("42b75bf920e27f8e", 264568497723),
    "swift_rem": ("14b8f127844e3e00", 3703731492787),
}
MIN_REPS = 3
REP_TIMEOUT_S = 60


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "engine.cc")):
        fail("simulator sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def run_rep(workload, seed, traced=False, probes=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if probes:
        cmd.append("--probes")
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} repetition timed out")
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        fail(f"{workload} repetition exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(rep, reference, seed):
    """Returns the rep's failed job count: jobs that did not complete, or
    every job of the rep when any output check fails."""
    problems = []
    if rep["completed"] != rep["submitted"]:
        problems.append(f"completed {rep['completed']} of {rep['submitted']}")
    if rep["rpc_decode_errors"] != 0:
        problems.append(f"rpc decode errors: {rep['rpc_decode_errors']}")
    if rep["retries"] != 0:
        problems.append(f"retries: {rep['retries']}")
    for key in ("input_digest", "digest", "makespan_ns", "submitted"):
        if rep[key] != reference[key]:
            problems.append(f"{key} {rep[key]} differs from first repetition "
                            f"{reference[key]}")
    if seed == DEFAULT_SEED:
        digest, makespan = PINNED[rep["workload"]]
        if rep["digest"] != digest or rep["makespan_ns"] != makespan:
            problems.append(f"digest/makespan {rep['digest']}/"
                            f"{rep['makespan_ns']} != pinned {digest}/{makespan}")
    for p in problems:
        kind = "traced" if rep["traced"] else "untraced"
        print(f"# check failed ({kind} repetition): {p}", file=sys.stderr)
    if problems:
        return rep["submitted"]
    return rep["submitted"] - rep["completed"]


def repeat(seconds, step):
    """Calls step() until the next call would overrun `seconds`."""
    start = time.monotonic()
    n = 0
    while True:
        step()
        n += 1
        elapsed = time.monotonic() - start
        if n >= MIN_REPS and elapsed + elapsed / n > seconds:
            return


def median(reps, key):
    return statistics.median(r[key] for r in reps)


def end_to_end(reps):
    return {
        "wall_s": (median(reps, "wall_s"), "s"),
        "jobs_per_host_s": (statistics.median(r["completed"] / r["wall_s"]
                                              for r in reps), "jobs/s"),
        "setup_s": (median(reps, "setup_s"), "s"),
        "peak_rss_mb": (median(reps, "peak_rss_mb"), "MiB"),
    }


def self_costs(p):
    """Per-unit self cost (ns) of each layer's probe: its raw time minus the
    lower layers' work it did, priced at their own probes' costs. Layers go
    bottom-up, so a probe's own layer is still priced at 0 when it is used."""
    cost = {name: 0.0 for name in ("sim", "net", "rpc", "os", "core", "pmi")}

    def self_ns(name):
        q = p[name]
        lower = (q["events"] * cost["sim"] + q["messages"] * cost["net"]
                 + q["frames"] * cost["rpc"] + q["execs"] * cost["os"])
        return max(0.0, q["ns"] - lower)

    cost["sim"] = self_ns("sim") / max(1, p["sim"]["units"])
    cost["rpc"] = self_ns("rpc") / max(1, p["rpc"]["units"])
    cost["net"] = self_ns("net") / max(1, p["net"]["messages"])
    cost["os"] = self_ns("os") / max(1, p["os"]["execs"])
    cost["core"] = self_ns("core") / max(1, p["core"]["units"])
    cost["pmi"] = (max(0.0, self_ns("pmi") - p["pmi"]["units"] * cost["core"])
                   / max(1, p["pmi"]["conns"]))
    return cost


def per_layer(plain, traced):
    t = traced[0]
    p = t["probes"]
    wall = median(plain, "wall_s")
    wall_traced = median(traced, "wall_s")
    frames = 2 * t["rpc_calls"] + t["rpc_notifies"]
    m = {
        "sim.events": (t["events"], "count"),
        "sim.host_ns_per_event": (wall * 1e9 / t["events"], "ns"),
        "sim.probe_ns_per_event": (p["sim"]["ns"] / p["sim"]["units"], "ns"),
        "sim.spawns": (t["spawns"], "count"),
        "sim.cancelled": (t["cancelled"], "count"),
        "sim.slab_high_water": (t["slab_high_water"], "count"),
        "net.messages": (t["messages"], "count"),
        "net.probe_ns_per_roundtrip": (p["net"]["ns"] / p["net"]["units"], "ns"),
        "net.arena.coalesced": (t["coalesced"], "count"),
        "net.arena.high_water": (t["arena_high_water"], "count"),
        "rpc.calls": (t["rpc_calls"], "count"),
        "rpc.notifies": (t["rpc_notifies"], "count"),
        "rpc.probe_ns_per_frame": (p["rpc"]["ns"] / p["rpc"]["units"], "ns"),
        "rpc.decode_errors": (t["rpc_decode_errors"], "count"),
        "os.execs": (t["execs"], "count"),
        "os.probe_us_per_exec": (p["os"]["ns"] / p["os"]["units"] / 1e3, "us"),
        "pmi.mpiexecs": (t["mpiexecs"], "count"),
        "pmi.proxy_conns": (t["proxy_conns"], "count"),
        "pmi.probe_ms_per_job": (p["pmi"]["ns"] / p["pmi"]["units"] / 1e6, "ms"),
        "mpi.acceptors": (t["acceptors"], "count"),
        "core.worker_conns": (t["worker_conns"], "count"),
        "core.probe_us_per_dispatch": (p["core"]["ns"] / p["core"]["units"] / 1e3, "us"),
        "core.retries": (t["retries"], "count"),
        "swift.statements": (t["statements"], "count"),
        "swift.build_s": (median(plain, "build_s"), "s"),
        "obs.trace_overhead_frac": (wall_traced / wall - 1.0, "ratio"),
        "obs.spans": (t["spans"], "count"),
    }
    for phase in ("queue", "group", "launch", "pmi", "run"):
        m[f"phase.{phase}.count"] = (t[f"phase.{phase}.count"], "count")
        m[f"phase.{phase}.mean_sim_ms"] = (t[f"phase.{phase}.mean_sim_ms"], "ms")
    cost = self_costs(p)
    counts = {"sim": t["events"], "net": t["messages"], "rpc": frames,
              "os": t["execs"], "pmi": t["proxy_conns"], "core": t["submitted"]}
    total = 0.0
    for layer in ("sim", "net", "rpc", "os", "pmi", "core"):
        share = counts[layer] * cost[layer] / (wall * 1e9)
        m[f"{layer}.est_share"] = (share, "ratio")
        total += share
    m["est_share_total"] = (total, "ratio")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    plain, traced = [], []
    if args.trace == 0:
        repeat(args.seconds, lambda: plain.append(run_rep(args.workload, args.seed)))
    else:
        traced.append(run_rep(args.workload, args.seed, traced=True, probes=True))

        def pair():
            plain.append(run_rep(args.workload, args.seed))
            traced.append(run_rep(args.workload, args.seed, traced=True))
        repeat(args.seconds, pair)

    reps = plain + traced
    failed = sum(check(r, reps[0], args.seed) for r in reps)
    if args.trace == 1:
        broken = [n for n, q in traced[0]["probes"].items() if q["units"] == 0]
        if broken:
            print(f"# check failed: probes {broken} did no work", file=sys.stderr)
            fail("probe failed")
    attempted = sum(r["submitted"] for r in reps)
    if args.trace == 0:
        metrics = end_to_end(plain)
    else:
        metrics = per_layer(plain, traced)
        metrics["failed_frac"] = (failed / attempted, "ratio")

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"untraced_reps={len(plain)} traced_reps={len(traced)} "
          f"jobs_per_rep={reps[0]['submitted']}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:32s} {value:>18.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
