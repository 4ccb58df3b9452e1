#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py

1. A non-default seed changes every workload's generated inputs, and the
   run still completes every job with no decode errors or retries.
2. Every metric run.py prints, with --trace 0 and --trace 1, has a name
   matching [A-Za-z0-9_.-]+ and a unit, and the printed set is exactly the
   one BENCHMARK.json declares.
3. Without the simulator sources next to it, run.py exits nonzero and
   prints no result.

Exits 0 when all pass. Scratch files go under .bench_build/.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

failures = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def rep(workload, seed):
    out = subprocess.run([os.path.join(BUILD, "perfbench"), "--workload",
                          workload, "--seed", str(seed)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def run_py(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], capture_output=True,
                          text=True, cwd=cwd)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    # Builds the benchmark program if needed; the result itself is checked in test 2.
    first = run_py("--workload", workloads[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    expect(first.returncode == 0, "run.py builds and runs")
    if first.returncode != 0:
        sys.stderr.write(first.stderr)
        return 1

    for w in workloads:
        a, b = rep(w, 1), rep(w, 2)
        expect(a["input_digest"] != b["input_digest"],
               f"{w}: seed 2 changes the generated inputs")
        expect(b["completed"] == b["submitted"] and b["rpc_decode_errors"] == 0
               and b["retries"] == 0, f"{w}: seed 2 completes every job")

    traced = run_py("--workload", workloads[-1], "--seed", "3", "--seconds",
                    "1", "--trace", "1")
    for out, trace, key in ((first, "0", "end_to_end"),
                            (traced, "1", "per_layer")):
        result = json.loads(out.stdout.strip().splitlines()[-1])
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
               f"--trace {trace}: result has exactly the four result keys")
        expect(result["correct"], f"--trace {trace}: outputs correct")
        metrics = result["metrics"]
        expect(set(metrics) == {m["name"] for m in spec[key]},
               f"--trace {trace}: prints exactly the {key} metrics")
        bad = [n for n, m in metrics.items()
               if not NAME.fullmatch(n) or not UNIT.fullmatch(m.get("unit", ""))]
        expect(not bad, f"--trace {trace}: every name and unit well formed {bad}")
        declared = {m["name"]: m["unit"] for m in spec[key]}
        wrong = [n for n, m in metrics.items() if declared.get(n) != m["unit"]]
        expect(not wrong, f"--trace {trace}: units match BENCHMARK.json {wrong}")

    bare = os.path.join(BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_py("--workload", workloads[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare,
                 script=os.path.join(bare, "perfbench", "run.py"))
    expect(out.returncode != 0 and out.stdout.strip() == "",
           "without src/ run.py fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
