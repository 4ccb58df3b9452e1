#!/usr/bin/env bash
# Byte-identity regression gate for the scheduler and simulator hot path.
#
# Runs all 15 figure benches at their default (committed) scales and
# compares each one's stdout hash against bench/golden_manifest.txt. Any
# refactor of the Service tables, the net layer (including the typed
# rpc::Channel request/response layer the service, worker, and PMI paths
# now ride), or the engine must leave every figure byte-identical; the
# first differing figure fails the run and is named, with a diff-friendly
# copy of its output left in $WORKDIR.
#
# Usage: scheduler_equiv.sh [build-dir]        (default: build)
# Env:   JETS_EQUIV_WORKDIR  where to put fresh outputs
#                            (default: a mktemp -d under /tmp)
#
# To regenerate the manifest after an *intentional* output change:
#   scripts/scheduler_equiv.sh && echo unreachable   # inspect the failure,
#   cp "$WORKDIR"/<figure>.txt output, review, then:
#   (cd "$WORKDIR" && sha256sum * | sed 's/\.txt$//') > bench/golden_manifest.txt
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
MANIFEST="$ROOT/bench/golden_manifest.txt"
WORKDIR="${JETS_EQUIV_WORKDIR:-$(mktemp -d /tmp/jets_equiv.XXXXXX)}"
mkdir -p "$WORKDIR"

if [[ ! -f "$MANIFEST" ]]; then
  echo "scheduler_equiv: missing manifest $MANIFEST" >&2
  exit 2
fi

fail=0
while read -r want name; do
  [[ -z "$name" ]] && continue
  bin="$BUILD/bench/$name"
  if [[ ! -x "$bin" ]]; then
    echo "scheduler_equiv: FAIL $name (binary not built: $bin)" >&2
    fail=1
    break
  fi
  out="$WORKDIR/$name.txt"
  # The large-N and trace knobs must not leak in: the manifest covers the
  # default scales, untraced.
  if ! env -u JETS_LARGE_N -u JETS_TRACE "$bin" > "$out" 2>&1; then
    echo "scheduler_equiv: FAIL $name (bench exited nonzero)" >&2
    fail=1
    break
  fi
  got=$(sha256sum "$out" | cut -d' ' -f1)
  if [[ "$got" != "$want" ]]; then
    echo "scheduler_equiv: FAIL $name (output diverged from golden manifest)" >&2
    echo "  expected sha256 $want" >&2
    echo "  got      sha256 $got" >&2
    echo "  fresh output kept at $out" >&2
    fail=1
    break
  fi
  echo "scheduler_equiv: ok $name"
done < "$MANIFEST"

if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "scheduler_equiv: all 15 figures byte-identical to golden manifest"
