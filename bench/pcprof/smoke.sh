#!/usr/bin/env bash
# The sampler end to end (the pcprof_smoke ctest): profile a short
# bench_sim_core run with the preloaded libpcprof.so, then require the
# report to resolve samples to the simulator's own functions, to give
# src/sim a share, and (--lines) to name source lines under src/.
#
# Usage: bench/pcprof/smoke.sh LIBPCPROF BENCH_SIM_CORE OUT_DIR [PYTHON]

set -euo pipefail

LIB="$1"
BIN="$2"
OUT_DIR="$3"
PYTHON="${4:-python3}"

rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"
PCPROF_OUT="$OUT_DIR/sim_core" LD_PRELOAD="$LIB" \
    "$BIN" --events=1000000 --messages=100000 \
    --out="$OUT_DIR/sim_core.json" >/dev/null
"$PYTHON" "$(dirname "$0")/report.py" --lines "$OUT_DIR/sim_core" \
    >"$OUT_DIR/report.txt"
cat "$OUT_DIR/report.txt"
grep -q "sonuma::" "$OUT_DIR/report.txt"
grep -q "%  src/sim$" "$OUT_DIR/report.txt"
grep -q "^# share by innermost source line$" "$OUT_DIR/report.txt"
grep -Eq "%  src/[a-z]+/[a-z_]+\.(cc|hh):[0-9]+$" "$OUT_DIR/report.txt"
