#!/usr/bin/env bash
# Tier-1 verification plus the fault/retry suites under sanitizers.
#
#   scripts/check.sh            # default preset: full suite (tier-1 verify)
#   scripts/check.sh --asan     # also build asan-ubsan and run chaos+retry
#   scripts/check.sh --all      # both of the above
#
# Both presets configure with -DJETS_WERROR=ON, so a compiler warning
# anywhere in the tree fails the check.
#
# The default preset run is the ROADMAP tier-1 gate: every ctest entry
# (labels unit, property, chaos, retry, obs, scale, recovery, staging,
# elastic, rpc) must pass, and the
# determinism smoke re-runs fig06_seq_rate twice and byte-diffs the
# output — the engine's event order must be a pure function of the
# inputs — then re-runs it with JETS_TRACE=1 and checks that, with the
# '# obs' report lines stripped, the traced output is byte-identical to
# the untraced run (tracing must not perturb the simulation). On top of
# that, scheduler_equiv.sh replays all 15 figure benches against the
# committed golden manifest (hot-path refactors must not move a byte),
# and the scale suite re-runs at 10^5 workers — release build only,
# under a wall-clock budget. The default preset also runs the feature
# scenarios beyond the paper, each twice and byte-diffed: a crash-recovery
# smoke (scn_recover must report replay digest/snapshot byte-equality and
# verbatim preservation of pre-crash settled records), a staging smoke
# (scn_staging's cold/warm dedup factor at least 10x), and an elastic smoke
# (scn_elastic must lose zero jobs to walltime expiry under allocation
# chaos). A source check keeps the golden figures free of env-var modes:
# no bench/*.cc may call std::getenv (bench/harness.hh is the only
# reader, for JETS_TRACE and JETS_LARGE_N). The sanitizer
# pass re-runs the fault-heavy
# suites (-L chaos and -L retry), the recovery suite (-L recovery, whose
# codec tests fuzz the snapshot reader's bounds checks), the staging
# suite (-L staging), plus the
# property suites (including the
# SoA-table churn differentials), the scale suite at its small default N,
# the observability suite (-L obs), the RPC conformance + fuzz battery
# (-L rpc, whose malformed-frame corpus is the decoders' memory-safety
# oracle), and the engine/sync tests, which
# exercise the slab allocators' recycling paths hardest, plus the
# allocation-budget tests (the intrusive wait lists' unlink paths), the
# Hydra/PMI/MPI suites (Mpiexec, MpiComm, KeyValueSpace: the control and
# rank sockets whose lifetimes the typed readers manage) and the machine
# tests (MachineTest: the process slab's recycled pids and intrusive child
# lists, over the engine's generation-checked actor handles). The sanitizer
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
  cmake --preset default -DJETS_WERROR=ON
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

  echo "== golden sources: no env-var modes in bench/*.cc =="
  if grep -n 'getenv' bench/*.cc; then
    echo "golden sources FAILED: a bench source reads the environment" \
         "(only bench/harness.hh may)" >&2
    exit 1
  fi
  echo "golden sources: OK"

  # Runs a scenario binary twice; the outputs must be byte-identical.
  run_twice() {
    ./build/bench/"$1" > "$tmpdir/$1_a.txt"
    ./build/bench/"$1" > "$tmpdir/$1_b.txt"
    if ! cmp -s "$tmpdir/$1_a.txt" "$tmpdir/$1_b.txt"; then
      echo "$1 FAILED: output differs between runs" >&2
      diff "$tmpdir/$1_a.txt" "$tmpdir/$1_b.txt" >&2 || true
      exit 1
    fi
  }

  echo "== crash-recovery smoke: scn_recover twice, byte-identical =="
  run_twice scn_recover
  for want in 'digest_match=yes' 'snapshot_match=yes' 'preserved_match=yes'; do
    if ! grep -q "$want" "$tmpdir/scn_recover_a.txt"; then
      echo "crash-recovery smoke FAILED: missing '$want'" >&2
      cat "$tmpdir/scn_recover_a.txt" >&2
      exit 1
    fi
  done
  echo "crash-recovery smoke: OK"

  echo "== staging lane: ctest -L staging (release) =="
  ctest --preset default --no-tests=error -L staging -j "$(nproc)"

  echo "== staging smoke: scn_staging twice, byte-identical, dedup >= 10x =="
  run_twice scn_staging
  # Every '# staging <nodes> ...' data row's last column is the cold/warm
  # dedup factor; the CAS + replication planner must buy at least 10x.
  if ! awk '/^# staging [0-9]/ { rows++; if ($NF + 0 < 10) bad = 1 } \
            END { exit (bad || rows == 0) }' "$tmpdir/scn_staging_a.txt"; then
    echo "staging smoke FAILED: dedup factor below 10x (or no sweep rows)" >&2
    grep '^# staging' "$tmpdir/scn_staging_a.txt" >&2 || true
    exit 1
  fi
  echo "staging smoke: OK"

  echo "== elastic lane: ctest -L elastic (release) =="
  ctest --preset default --no-tests=error -L elastic -j "$(nproc)"

  echo "== rpc lane: ctest -L rpc (release) =="
  ctest --preset default --no-tests=error -L rpc -j "$(nproc)"

  echo "== elastic smoke: scn_elastic twice, byte-identical, zero jobs lost =="
  run_twice scn_elastic
  if ! grep -q '^# elastic jobs_lost_to_walltime=0$' "$tmpdir/scn_elastic_a.txt"; then
    echo "elastic smoke FAILED: jobs lost to walltime expiry (or no elastic rows)" >&2
    grep '^# elastic' "$tmpdir/scn_elastic_a.txt" >&2 || true
    exit 1
  fi
  if ! grep -q '^# elastic failed=0$' "$tmpdir/scn_elastic_a.txt"; then
    echo "elastic smoke FAILED: jobs failed under elastic chaos" >&2
    grep '^# elastic' "$tmpdir/scn_elastic_a.txt" >&2 || true
    exit 1
  fi
  echo "elastic smoke: OK"

  echo "== scheduler equivalence: 15 figures vs golden manifest =="
  ./scripts/scheduler_equiv.sh build

  echo "== scale suite at 10^5 workers (release build, 10 min budget) =="
  JETS_SCALE_N=100000 timeout 600 ./build/tests/scale_test
  echo "large-N scale suite: OK"
fi

if [[ "$run_asan" == 1 ]]; then
  echo "== chaos + retry + property + engine under ASan/UBSan =="
  cmake --preset asan-ubsan -DJETS_WERROR=ON
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
  ctest --preset asan-ubsan --no-tests=error -j "$(nproc)" \
    -R '^(Engine|Channel|Semaphore|Gate|Time|Rng|AllocBudget|Mpiexec|MpiComm|KeyValueSpace|MachineTest)\.'

  echo "== scheduler equivalence vs golden manifest (asan build) =="
  ./scripts/scheduler_equiv.sh build-asan
fi

echo "check.sh: OK"
