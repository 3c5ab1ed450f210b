#!/usr/bin/env bash
# CI smoke for the KLLO gradient-bound conformance gate (registered as the
# ctest `smoke_sweep_kllo`, label `integration`): churned hypercube cells
# across all three reconnect policies, every live edge graded against the
# KLLO envelope parameterized by its edge age.
#
# What it proves:
#   * the gradient protocol stays inside the envelope on every churned cell
#     (--gate-kllo=1.0 exits 0, zero per-edge violations),
#   * jump-to-max blows through the same gate on the same grid (nonzero
#     exit) — the negative control that keeps the gate honest,
#   * edge_age_min / kllo_ratio export for every dynamic row and the grid
#     replays byte-identically (schedules and ages derive from the seed),
#   * a negative gate ratio (--gate, --gate-local, --gate-kllo) is a
#     malformed flag: exit 2 naming it, before any cell runs.
#
# Usage: smoke_sweep_kllo.sh <path-to-sweep_cli> <workdir>
set -euo pipefail

CLI=$1
DIR=$2

rm -rf "$DIR"
mkdir -p "$DIR"

# rounds=24 gives drift time to overwhelm jump-to-max (its skew grows
# ~0.02/round unbounded) while gradient holds ~0.1 against an envelope
# base of 0.35 — a wide margin on both sides of the gate.
GRID=(--world=relay --topology=hypercube --n=16 --faults=0 --crypto=abstract
      --churn-rate=0.05 --join-batch=0
      --reconnect=random,preferential,ring-repair
      --rounds=24 --warmup=4 --threads=2 --gate-kllo=1.0 --format=csv)

echo "== gradient: churned cells stay inside the KLLO envelope =="
"$CLI" --protocols=gradient "${GRID[@]}" --out="$DIR/gradient.csv"

echo "== determinism: the same grid replays byte-identically =="
"$CLI" --protocols=gradient "${GRID[@]}" --out="$DIR/gradient_again.csv"
diff "$DIR/gradient.csv" "$DIR/gradient_again.csv"

echo "== every dynamic row exports edge_age_min and a conforming kllo_ratio =="
awk -F, '
  NR==1 { for (i=1; i<=NF; i++) col[$i]=i; next }
  {
    if ($col["kllo_ratio"] == "") { print "missing kllo_ratio: " $0; exit 1 }
    if ($col["edge_age_min"] == "") { print "missing edge_age_min: " $0; exit 1 }
    if ($col["kllo_ratio"] + 0 > 1.0) { print "kllo_ratio above gate: " $0; exit 1 }
    if ($col["kllo_violations"] + 0 != 0) { print "kllo violations: " $0; exit 1 }
    rows++
  }
  END {
    # 3 reconnect policies x 2 delay kinds (random, split).
    if (rows != 6) { print "expected 6 churned rows, got " rows; exit 1 }
  }
' "$DIR/gradient.csv"

echo "== jump-to-max: the same gate trips (negative control) =="
if "$CLI" --protocols=jump-max "${GRID[@]}" --out="$DIR/jump_max.csv"; then
  echo "smoke_sweep_kllo: jump-max unexpectedly passed --gate-kllo"
  exit 1
fi

awk -F, '
  NR==1 { for (i=1; i<=NF; i++) col[$i]=i; next }
  $col["kllo_ratio"] + 0 > 1.0 { tripped++ }
  END {
    if (tripped < 1) { print "no jump-max row above the envelope"; exit 1 }
  }
' "$DIR/jump_max.csv"

echo "== negative gate ratios are malformed flags (exit 2, flag named) =="
for flag in --gate=-1 --gate-local=-1 --gate-kllo=-5 --gate_kllo=-0.5; do
  status=0
  "$CLI" --protocols=cps --n=4 --rounds=2 --warmup=0 "$flag" \
         --format=csv --out=/dev/null 2> "$DIR/negative_gate.err" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q -- "${flag%%=*}" "$DIR/negative_gate.err"
  then
    echo "smoke_sweep_kllo: $flag exited $status instead of 2 naming the flag"
    exit 1
  fi
done

echo "smoke_sweep_kllo: OK"
