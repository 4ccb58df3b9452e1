#!/usr/bin/env python3
"""Steadiness report: runs every workload of BENCHMARK.json once per seed
(seeds 1-10, --trace 0, BENCHMARK.json's run_seconds), in two sets one
after the other, and prints for each end-to-end metric each set's median,
quartiles, quartile spread (q3 - q1 over the median, as
statistics.quantiles(values, n=4) gives them) and max/min ratio, and how
far the second set's median lies from the first's.

    python3 perfbench/steadiness.py

Exits 0 only when every run passes its output checks and, for every metric
of every workload, each set's spread and the distance between the two
sets' medians (as a share of the first) are within the metric's bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
SETS = 2


def run_set(spec, workload):
    """Returns {metric: [value per seed]}, or None if a run failed."""
    values = {}
    for seed in SEEDS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            print(f"{workload} seed {seed}: run.py exited {out.returncode}")
            return None
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"{workload} seed {seed}: output check failed")
            return None
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    sets = []
    for i in range(SETS):
        sets.append({})
        for workload in workloads:
            values = run_set(spec, workload)
            if values is None:
                return 1
            sets[i][workload] = values

    ok = True
    print(f"{len(SEEDS)} runs per set, seeds {SEEDS.start}-{SEEDS.stop - 1}, "
          f"{spec['run_seconds']} s each; 'agree' is |median2 - median1| / "
          f"median1")
    print(f"{'workload':13s} {'metric':16s} {'set':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'max/min':>8s} "
          f"{'agree':>8s} {'bound':>6s}")
    for workload in workloads:
        for name, bound in bounds.items():
            medians = []
            for i, s in enumerate(sets):
                vals = s[workload][name]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                agree = ""
                verdict = spread <= bound
                if i > 0:
                    distance = abs(med - medians[0]) / medians[0]
                    agree = f"{distance:8.4f}"
                    verdict = verdict and distance <= bound
                ok = ok and verdict
                print(f"{workload:13s} {name:16s} {i + 1:3d} {med:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {spread:8.4f} "
                      f"{max(vals) / min(vals):8.4f} {agree:>8s} {bound:6g} "
                      f"{'' if verdict else 'OUT OF BOUND'}")
    print("steady: every spread and agreement within its bound" if ok
          else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
