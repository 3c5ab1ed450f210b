#!/usr/bin/env bash
# CI smoke for the dynamic-network world (registered as the ctest
# `smoke_sweep_dynamic`, label `integration`): a churned relay sweep —
# rewire-only and membership churn across all three reconnect policies —
# gated on liveness and the gradient (local-skew) ratio.
#
# What it proves:
#   * churned cells complete every round (violates_gate trips on a stalled
#     dynamic cell, and --gate-local trips on a gradient blow-up),
#   * the static churn_rate=0 cell in the same grid exports byte-stable
#     rows: running the grid twice yields identical CSVs (schedules replay
#     from (seed, policy)),
#   * local_skew is exported for every completed dynamic row and never
#     exceeds the global max_skew,
#   * churn at scale stays cheap and deterministic: a 4096-node churned
#     hypercube (rewires plus leaves, every reconnect policy) runs twice to
#     byte-identical CSVs. Its schedule takes thousands of rewire and leave
#     checks, and its per-epoch D_f analysis walks both the sparse and the
#     dense levels of the bit-parallel BFS.
#
# Usage: smoke_sweep_dynamic.sh <path-to-sweep_cli> <workdir>
set -euo pipefail

CLI=$1
DIR=$2

rm -rf "$DIR"
mkdir -p "$DIR"

# The local gate is a blow-up guard, not the static bound: a node that
# rejoins after an epoch down has drifted while unsynchronized, so a
# transient local ratio above 1 is physical; a stalled or diverging cell
# shoots far past 3.
GRID=(--world=relay --protocols=probe --topology=hypercube --n=32
      --faults=0 --crypto=abstract --churn-rate=0,0.05 --join-batch=0,2
      --reconnect=random,preferential,ring-repair
      --rounds=8 --warmup=2 --threads=2 --gate-local=3.0 --format=csv)

echo "== churned sweep (gated on local_skew_ratio) =="
"$CLI" "${GRID[@]}" --out="$DIR/dynamic.csv"

echo "== determinism: the same grid replays byte-identically =="
"$CLI" "${GRID[@]}" --out="$DIR/dynamic_again.csv"
diff "$DIR/dynamic.csv" "$DIR/dynamic_again.csv"

echo "== churn at scale: n=4096 churned hypercube, replayed byte-identically =="
LARGE=(--world=relay --protocols=probe --topology=hypercube --n=4096
       --faults=0 --crypto=abstract --delays=split --churn-rate=0.02
       --join-batch=4 --reconnect=random,preferential,ring-repair
       --rounds=8 --warmup=2 --threads=2 --gate-local=3.0 --format=csv)
"$CLI" "${LARGE[@]}" --out="$DIR/large.csv"
"$CLI" "${LARGE[@]}" --out="$DIR/large_again.csv"
diff "$DIR/large.csv" "$DIR/large_again.csv"

echo "== every completed dynamic row exports local_skew <= max_skew =="
awk -F, '
  NR==1 { for (i=1; i<=NF; i++) col[$i]=i; next }
  $col["churn_rate"] == 0 && $col["join_batch"] == 0 { next }
  {
    if ($col["live"] != "1") { print "dead dynamic row: " $0; exit 1 }
    if ($col["local_skew"] == "") { print "missing local_skew: " $0; exit 1 }
    if ($col["local_skew"] + 0 > $col["max_skew"] + 1e-12) {
      print "local_skew exceeds max_skew: " $0; exit 1
    }
    dynamic++
  }
  END {
    if (dynamic < 2) { print "too few dynamic rows: " dynamic; exit 1 }
  }
' "$DIR/dynamic.csv"

echo "smoke_sweep_dynamic: OK"
