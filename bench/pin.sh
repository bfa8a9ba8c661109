#!/usr/bin/env bash
# Pin one row of bench/artifacts.txt (the pin_ROW ctest): run its
# command into OUT_DIR/new and `check_artifacts.py --compare` that tree
# with the checked-in files the row's OUTPUTS match, linked into
# OUT_DIR/pinned. A moved simulated value, a changed table, or a
# missing or extra file fails.
#
# Usage: bench/pin.sh BENCH_BIN_DIR OUT_DIR ROW [PYTHON]

set -euo pipefail

BIN="$1"
OUT_DIR="$2"
ROW="$3"
PYTHON="${4:-python3}"
REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# One line per row: ROW LABELS OUTPUTS COMMAND.
row="$(awk '/^[^#[:space:]]/ { if (r) print r; r = $0 }
            /^[[:space:]]+[^[:space:]]/ { r = r $0 } END { print r }' \
           "$REPO_ROOT/bench/artifacts.txt" | grep "^$ROW ")" ||
    { echo "no row '$ROW' in bench/artifacts.txt" >&2; exit 2; }
read -r _ _ outputs cmd <<<"$row"

rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR/pinned/BENCH_sweep" "$OUT_DIR/new/BENCH_sweep"
IFS=, read -ra globs <<<"$outputs"
for glob in "${globs[@]}"; do
    for f in "$REPO_ROOT"/$glob; do
        if [[ ! -e "$f" ]]; then
            echo "row '$ROW': no checked-in file matches $glob" >&2
            exit 1
        fi
        ln -s "$f" "$OUT_DIR/pinned/${f#"$REPO_ROOT"/}"
    done
done

eval "\"\$BIN\"/${cmd//\{out\}/$(printf %q "$OUT_DIR/new")}" >/dev/null
"$PYTHON" "$REPO_ROOT/bench/check_artifacts.py" \
    --compare "$OUT_DIR/pinned" "$OUT_DIR/new"
