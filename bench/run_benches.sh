#!/usr/bin/env bash
# Build Release, re-measure BENCH_sim_core.json, run every row of
# bench/artifacts.txt into the repository (README.md lists the
# artifacts), and validate all of them with bench/check_artifacts.py.
#
# Usage: bench/run_benches.sh [--smoke] [build-dir]
#                             (default build dir: build-release)
#
# --smoke: fast CI sanity — the perf guard against the checked-in
# baseline, then bench/sweep_cli.sh's short cells; writes NOTHING into
# the repository. The pin_* ctests value-check every artifact.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
    SMOKE=1
    shift
fi
BUILD_DIR="${1:-$REPO_ROOT/build-release}"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release \
      -DSONUMA_BUILD_TESTS=OFF >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" >/dev/null

if [[ "$SMOKE" == 1 ]]; then
    SMOKE_DIR="$(mktemp -d)"
    trap 'rm -rf "$SMOKE_DIR"' EXIT
    echo "== smoke: sim_core guard (ratio check vs checked-in baseline) =="
    python3 "$REPO_ROOT/bench/check_sim_core.py" \
        --binary "$BUILD_DIR/bench_sim_core" \
        --baseline "$REPO_ROOT/BENCH_sim_core.json" \
        --threshold 0.10 --events 400000
    echo "== smoke: bench/sweep_cli.sh =="
    "$REPO_ROOT/bench/sweep_cli.sh" "$BUILD_DIR/bench_sweep" "$SMOKE_DIR"
    echo "smoke OK (no repository artifacts touched)"
    exit 0
fi

echo "== sim_core =="
"$BUILD_DIR/bench_sim_core" --out="$REPO_ROOT/BENCH_sim_core.json"

# One line per row: ROW LABELS OUTPUTS COMMAND.
mapfile -t rows < <(awk '/^[^#[:space:]]/ { if (r) print r; r = $0 }
                         /^[[:space:]]+[^[:space:]]/ { r = r $0 }
                         END { print r }' "$REPO_ROOT/bench/artifacts.txt")
mkdir -p "$REPO_ROOT/BENCH_sweep"
for row in "${rows[@]}"; do
    read -r name _ _ cmd <<<"$row"
    echo "== $name =="
    eval "\"\$BUILD_DIR\"/${cmd//\{out\}/$(printf %q "$REPO_ROOT")}"
done

echo "== schema and identities (every tracked artifact) =="
python3 "$REPO_ROOT/bench/check_artifacts.py" --obs-period-ns=10000
