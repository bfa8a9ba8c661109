#!/usr/bin/env bash
# Pin one family of checked-in artifacts (the table2_pin and
# degraded_pin ctests): rerun the bench commands that write the family
# exactly as bench/run_benches.sh does, into OUT_DIR, and compare every
# file they write with the checked-in copy through
# `check_artifacts.py --compare`. Any moved simulated value, or a
# missing or extra file, fails.
#
#   table2    Table 2 (crossbar cells plus their OBS_ sidecars, which
#             hold the crossbar egress probes)
#   degraded  the four DEGRADED_* torus cells (node kill, link kill
#             under adaptive routing, incast, drop window) and the
#             node-kill cell's OBS_ sidecar
#
# Usage: bench/pin.sh table2|degraded BENCH_BIN_DIR OUT_DIR [PYTHON]

set -euo pipefail

FAMILY="$1"
BIN="$2"
OUT_DIR="$3"
PYTHON="${4:-python3}"
REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
CHECK="$REPO_ROOT/bench/check_artifacts.py"
SWEEP=(--nodes=64 --topo=4x4x4 --sizes=64 --depths=16 --ops=64
       --out-dir="$OUT_DIR")

rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"
case "$FAMILY" in
  table2)
    "$BIN/bench_table2_comparison" --obs-period-ns=10000 \
        --out="$OUT_DIR/BENCH_table2_comparison.json" \
        --out-dir="$OUT_DIR" >/dev/null
    pinned=("$REPO_ROOT/BENCH_table2_comparison.json"
            "$REPO_ROOT"/BENCH_sweep/TABLE2_*.json
            "$REPO_ROOT"/BENCH_sweep/OBS_TABLE2_*.json)
    ;;
  degraded)
    "$BIN/bench_sweep" "${SWEEP[@]}" --faults=node-kill@10us+100us \
        --obs-period-ns=10000 >/dev/null
    "$BIN/bench_sweep" "${SWEEP[@]}" --routing=adaptive \
        --faults=link-kill@2us >/dev/null
    "$BIN/bench_sweep" "${SWEEP[@]}" --faults=incast >/dev/null
    "$BIN/bench_sweep" "${SWEEP[@]}" --faults=drop@10us+100us \
        --max-attempts=6 >/dev/null
    pinned=("$REPO_ROOT"/BENCH_sweep/DEGRADED_*.json
            "$REPO_ROOT"/BENCH_sweep/OBS_*_node-kill.json)
    ;;
  *)
    echo "unknown family '$FAMILY' (expected table2 or degraded)" >&2
    exit 2
    ;;
esac

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
