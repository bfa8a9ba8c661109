#!/usr/bin/env bash
# The CLI -> artifact -> checker path in one short run (the sweep_cli
# ctest): the quick uniform matrix, an 8-node PageRank cell, and a drop
# cell and a node-kill-and-recover cell that RMC retransmission alone
# must carry to ok_ops == ops, written into OUT_DIR and then validated
# by bench/check_artifacts.py. Both faults land inside the ~5 us the
# healthy 16-node cell runs.
#
# Usage: bench/sweep_cli.sh BENCH_SWEEP OUT_DIR [PYTHON]

set -euo pipefail

SWEEP="$1"
OUT_DIR="$2"
PYTHON="${3:-python3}"

rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"
"$SWEEP" --quick --out-dir="$OUT_DIR" >/dev/null
"$SWEEP" --workload=pagerank --nodes=8 --ndims=3 --sizes=64 --depths=16 \
    --pr-vertices=1024 --pr-degree=4 --out-dir="$OUT_DIR" >/dev/null
"$SWEEP" --quick --nodes=16 --topo=4x4 --sizes=64 --depths=16 --ops=32 \
    --faults=drop@1us+20us --max-attempts=6 --out-dir="$OUT_DIR" >/dev/null
"$SWEEP" --quick --nodes=16 --topo=4x4 --sizes=64 --depths=16 --ops=32 \
    --faults=node-kill@2us+40us --out-dir="$OUT_DIR" >/dev/null
"$PYTHON" "$(dirname "$0")/check_artifacts.py" "$OUT_DIR" \
    --expect 'SWEEP_*' --expect 'FIG9_*' --expect 'DEGRADED_*_drop.json' \
    --expect 'DEGRADED_*_node-kill.json'
