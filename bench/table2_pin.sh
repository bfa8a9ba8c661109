#!/usr/bin/env bash
# Pin the crossbar path (the table2_pin ctest): run the Table 2 bench
# exactly as bench/run_benches.sh does, into OUT_DIR, and compare every
# file it writes with the checked-in copy through
# `check_artifacts.py --compare`. The Table 2 cells run on the crossbar
# and their OBS_ sidecars hold its egress probes, so any change to a
# simulated crossbar value, or a missing or extra file, fails.
#
# Usage: bench/table2_pin.sh BENCH_TABLE2_COMPARISON OUT_DIR [PYTHON]

set -euo pipefail

TABLE2="$1"
OUT_DIR="$2"
PYTHON="${3:-python3}"
REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
CHECK="$REPO_ROOT/bench/check_artifacts.py"

rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"
"$TABLE2" --obs-period-ns=10000 \
    --out="$OUT_DIR/BENCH_table2_comparison.json" --out-dir="$OUT_DIR" \
    >/dev/null

pinned=("$REPO_ROOT/BENCH_table2_comparison.json"
        "$REPO_ROOT"/BENCH_sweep/TABLE2_*.json
        "$REPO_ROOT"/BENCH_sweep/OBS_TABLE2_*.json)
written=("$OUT_DIR"/*.json)
if [[ ${#written[@]} -ne ${#pinned[@]} ]]; then
    echo "wrote ${#written[@]} files, ${#pinned[@]} are checked in" >&2
    exit 1
fi
status=0
for old in "${pinned[@]}"; do
    "$PYTHON" "$CHECK" --compare "$old" "$OUT_DIR/$(basename "$old")" ||
        status=1
done
exit "$status"
