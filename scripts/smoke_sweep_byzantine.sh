#!/usr/bin/env bash
# CI smoke for the complete-graph world at maximum Byzantine load (registered
# as the ctest `smoke_sweep_byzantine`, label `integration`): CPS, ST and LW
# at n=32 with f = max resilience, against every Byzantine strategy, under
# split delays.
#
# What it proves:
#   * every cell passes --gate=1.0: no scenario error or timeout, and the
#     realized skew stays within the protocol's predicted bound,
#   * no row records a model violation (a strategy that sent an honest
#     signature before the adversary received it),
#   * the grid replays byte-identically. Faulty senders' broadcasts take the
#     batched delivery path here, so this also pins that path's determinism
#     at a fault load the other smokes never reach.
#
# Usage: smoke_sweep_byzantine.sh <path-to-sweep_cli> <workdir>
set -euo pipefail

CLI=$1
DIR=$2

rm -rf "$DIR"
mkdir -p "$DIR"

GRID=(--world=complete --protocols=cps,st,lw --n=32 --faults=max
      --byz=crash,echo-rush,split,pull-early,pull-late,replay,random,greedy-skew
      --delays=split --u=0.01 --vartheta=1.001 --rounds=8 --warmup=2
      --threads=2 --gate=1.0 --format=csv)

echo "== max-fault-load complete cells pass the ratio gate =="
"$CLI" "${GRID[@]}" --out="$DIR/byzantine.csv"

echo "== no row records a model violation =="
awk -F, '
  NR==1 { for (i=1; i<=NF; i++) col[$i]=i; next }
  $col["violations"] != "0" { print "row with model violations: " $0; exit 1 }
  { rows++ }
  END {
    # 3 protocols x 8 strategies.
    if (rows != 24) { print "expected 24 rows, got " rows; exit 1 }
  }
' "$DIR/byzantine.csv"

echo "== determinism: the same grid replays byte-identically =="
"$CLI" "${GRID[@]}" --out="$DIR/byzantine_again.csv"
cmp "$DIR/byzantine.csv" "$DIR/byzantine_again.csv"

echo "smoke_sweep_byzantine: OK"
