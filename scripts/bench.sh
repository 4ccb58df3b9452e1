#!/usr/bin/env bash
# Perf-trajectory harness for the simulation substrate.
#
#   scripts/bench.sh              # append one entry to BENCH_sim.json
#   scripts/bench.sh --check      # run benches, print entry, do not append
#
# Runs the google-benchmark micro suite (engine schedule/cancel/dispatch,
# scheduler choose_job/claim_workers, CAS put/get, stage fan-out dedup)
# plus wall-clock timings of the two headline figure benches (fig06,
# fig09) and the large-N series, and appends one JSON entry to
# BENCH_sim.json. The file is an append-only trajectory: one entry per
# measurement, never rewritten, so regressions are visible as a time
# series across PRs. Numbers are host-dependent — compare entries only
# within one machine (the `host` field).
#
# Each entry names the tree it measured: `commit` is HEAD and `dirty` says
# whether tracked files differed from it. `parent` is the commit the
# measured change sits on — HEAD itself for a dirty tree, HEAD's parent
# for a clean one — so a change can record its numbers before it is
# committed and still be matched to its base.
set -euo pipefail
cd "$(dirname "$0")/.."

append=1
[[ "${1:-}" == "--check" ]] && append=0

BUILD="${BUILD:-build}"
OUT="BENCH_sim.json"

if [[ ! -x "$BUILD/bench/micro_benchmarks" ]]; then
  echo "bench.sh: $BUILD/bench/micro_benchmarks not built (run scripts/check.sh first)" >&2
  exit 1
fi

micro_json="$(mktemp)"
trap 'rm -rf "$micro_json"' EXIT

echo "== micro suite (google-benchmark) =="
"$BUILD/bench/micro_benchmarks" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 > "$micro_json"

wall_ns() {  # wall-clock of one figure bench at default scale, output discarded
  local t0 t1
  t0=$(date +%s%N)
  env -u JETS_LARGE_N -u JETS_TRACE "$1" > /dev/null
  t1=$(date +%s%N)
  echo $((t1 - t0))
}

echo "== tracing byte-identity: fig06 with and without JETS_TRACE =="
trace_dir="$(mktemp -d)"
trap 'rm -rf "$micro_json" "$trace_dir"' EXIT
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

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [[ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]]; then
  dirty=true
  parent="$commit"
else
  dirty=false
  parent=$(git rev-parse --short HEAD~1 2>/dev/null || echo unknown)
fi
date_iso=$(date -u +%Y-%m-%dT%H:%M:%SZ)

entry=$(python3 - "$micro_json" "$commit" "$parent" "$dirty" "$date_iso" \
        "$fig06_ns" "$fig09_ns" "$large_n_txt" <<'PY'
import json, platform, sys

(micro_path, commit, parent, dirty, date_iso, fig06_ns, fig09_ns,
 large_n_path) = sys.argv[1:9]
with open(micro_path) as f:
    micro = json.load(f)

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

benches = {}
for b in micro.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    # google-benchmark reports in the unit it chose; normalise to ns.
    scale = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[b.get("time_unit", "ns")]
    benches[b["name"]] = {
        "real_time_ns": round(b["real_time"] * scale),
        "cpu_time_ns": round(b["cpu_time"] * scale),
        "iterations": b["iterations"],
    }

entry = {
    "commit": commit,
    "parent": parent,
    "dirty": dirty == "true",
    "date": date_iso,
    "host": platform.node(),
    "figures_wall_ns": {
        "fig06_seq_rate": int(fig06_ns),
        "fig09_bgp_util": int(fig09_ns),
    },
    "large_n": large_n,
    "micro": benches,
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
print(f"bench.sh: appended entry for {entry['commit']}"
      f"{' (dirty)' if entry['dirty'] else ''} to {out} "
      f"({len(trajectory)} entries)")
PY
fi
