#!/usr/bin/env bash
# Build Release and run every bench, refreshing the tracked artifacts
# (schema 3, all rendered by sim::JsonWriter; README.md lists them):
#
#   BENCH_<bench>.json           - engine throughput (sim_core) and the
#                                  paper tables: fig1, fig7 (+ the .txt
#                                  table), fig8, fig9, table2
#   BENCH_sweep/SWEEP_*.json     - 64-node torus uniform-read matrix
#   BENCH_sweep/TABLE2_*.json    - Table 2 IOPS-vs-qpCount curve
#   BENCH_sweep/FIG9_*.json      - fine-grain PageRank at 64/256/512
#                                  nodes on 3D tori (ranks verified)
#   BENCH_sweep/DEGRADED_*.json  - node kill/recover, link kill under
#                                  adaptive routing, incast, and a drop
#                                  window recovered by retransmission
#   BENCH_sweep/OBS_*.json       - time-series sidecars of sampled cells
#
# and validate all of them with bench/check_artifacts.py.
#
# Usage: bench/run_benches.sh [--smoke] [build-dir]
#                             (default build dir: build-release)
#
# --smoke: fast CI sanity — run the benches on a reduced budget, check
# the perf guard against the checked-in baseline and every emitted
# artifact, and write NOTHING into the repository.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
    SMOKE=1
    shift
fi
BUILD_DIR="${1:-$REPO_ROOT/build-release}"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release \
      -DSONUMA_BUILD_TESTS=OFF -DSONUMA_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" >/dev/null
CHECK="$REPO_ROOT/bench/check_artifacts.py"

cd "$REPO_ROOT"

if [[ "$SMOKE" == 1 ]]; then
    SMOKE_DIR="$(mktemp -d)"
    trap 'rm -rf "$SMOKE_DIR"' EXIT
    echo "== smoke: sim_core guard (ratio check vs checked-in baseline) =="
    python3 "$REPO_ROOT/bench/check_sim_core.py" \
        --binary "$BUILD_DIR/bench_sim_core" \
        --baseline "$REPO_ROOT/BENCH_sim_core.json" \
        --threshold 0.10 --events 400000
    echo "== smoke: sweep (quick matrix incl. qpCount cell) =="
    "$BUILD_DIR/bench_sweep" --quick --qps=1,2 --batching=1 \
        --out-dir="$SMOKE_DIR" >/dev/null
    echo "== smoke: degraded-mode cell (node kill/recover) =="
    "$BUILD_DIR/bench_sweep" --quick --nodes=16 --topo=4x4 --sizes=64 \
        --depths=16 --ops=32 --faults=node-kill@20us+40us \
        --out-dir="$SMOKE_DIR" >/dev/null
    echo "== smoke: recovery cell (silent drop window, RMC retransmission) =="
    # Workload-level retries are OFF (--retries=0): every dropped packet
    # must be recovered by the RMC's timeout-driven retransmission
    # alone, and the ok + unrecoverable == ops identity must close.
    "$BUILD_DIR/bench_sweep" --quick --nodes=16 --topo=4x4 --sizes=64 \
        --depths=16 --ops=32 --faults=drop@10us+60us --max-attempts=6 \
        --retries=0 --out-dir="$SMOKE_DIR" >/dev/null
    echo "== smoke: fig9 pagerank workload cell (8 nodes, tiny graph) =="
    "$BUILD_DIR/bench_sweep" --workload=pagerank --nodes=8 --ndims=3 \
        --sizes=64 --depths=16 --pr-vertices=1024 --pr-degree=4 \
        --out-dir="$SMOKE_DIR" >/dev/null
    echo "== smoke: observability cell (8 nodes, sampling on) =="
    "$BUILD_DIR/bench_sweep" --quick --nodes=8 --sizes=64 --depths=16 \
        --ops=32 --obs-period-ns=200 --out-dir="$SMOKE_DIR" >/dev/null
    echo "== smoke: fig1, fig7 (hw side only), table2 =="
    "$BUILD_DIR/bench_fig1_netpipe" \
        --out="$SMOKE_DIR/BENCH_fig1_netpipe.json" >/dev/null
    "$BUILD_DIR/bench_fig7_remote_read" --platform=hw \
        --out="$SMOKE_DIR/BENCH_fig7_remote_read.json" >/dev/null
    "$BUILD_DIR/bench_table2_comparison" \
        --out="$SMOKE_DIR/BENCH_table2_comparison.json" \
        --out-dir="$SMOKE_DIR" >/dev/null
    echo "== smoke: schema and identities (every emitted artifact) =="
    python3 "$CHECK" "$SMOKE_DIR" --obs-period-ns=200 \
        --expect 'SWEEP_*_qp2_db.json' --expect 'DEGRADED_*_node-kill.json' \
        --expect 'DEGRADED_*_drop.json' --expect 'FIG9_*.json' \
        --expect 'OBS_n8_*.json' --expect 'TABLE2_iops_qp8.json' \
        --expect 'BENCH_fig1_netpipe.json' \
        --expect 'BENCH_fig7_remote_read.json' \
        --expect 'BENCH_table2_comparison.json'
    echo "smoke OK (no repository artifacts touched)"
    exit 0
fi

echo "== sim_core =="
"$BUILD_DIR/bench_sim_core" --out="$REPO_ROOT/BENCH_sim_core.json"

echo "== sweep (64-node torus fig9-style matrix) =="
mkdir -p "$REPO_ROOT/BENCH_sweep"
"$BUILD_DIR/bench_sweep" --nodes=64 --topologies=torus \
    --sizes=64,512 --depths=16,64 --ops=64 \
    --out-dir="$REPO_ROOT/BENCH_sweep"

echo "== sweep exemplar (8-node cell byte-compared by observability_test) =="
"$BUILD_DIR/bench_sweep" --nodes=8 --sizes=64 --depths=16 \
    --out-dir="$REPO_ROOT/BENCH_sweep"

echo "== table2 (three-platform table + IOPS-vs-qpCount curve, OBS sampled) =="
# Sampling is read-only (observability_test proves the cell artifact is
# unchanged), so the curve and its OBS_TABLE2_* sidecars come from the
# same run.
"$BUILD_DIR/bench_table2_comparison" --obs-period-ns=10000 \
    --out="$REPO_ROOT/BENCH_table2_comparison.json" \
    --out-dir="$REPO_ROOT/BENCH_sweep"

echo "== fig9 PageRank scale study (64/256/512 nodes, 3D tori) =="
# 65536 vertices keep >= 128 owned vertices per node at 512 nodes, so
# compute still dominates the O(N) barrier broadcast and the mops curve
# stays near-linear through the whole 64-512 sweep.
"$BUILD_DIR/bench_sweep" --workload=pagerank --nodes=64,256,512 \
    --ndims=3 --depths=64 --sizes=64 --pr-vertices=65536 --pr-degree=8 \
    --out-dir="$REPO_ROOT/BENCH_sweep"

echo "== degraded-mode study (node kill, link kill + adaptive, incast) =="
# The kill lands mid-flight (in-flight ops to the victim peak in the
# first ~15 simulated us) so the abort/retry accounting is exercised,
# not just the recovery.
# The node-kill cell also carries the observability exemplar: sampling
# every 10 simulated us writes an OBS_*_node-kill.json sidecar next to
# the (unchanged) DEGRADED artifact.
"$BUILD_DIR/bench_sweep" --nodes=64 --topo=4x4x4 --sizes=64 --depths=16 \
    --ops=64 --faults=node-kill@10us+100us --obs-period-ns=10000 \
    --out-dir="$REPO_ROOT/BENCH_sweep"
"$BUILD_DIR/bench_sweep" --nodes=64 --topo=4x4x4 --sizes=64 --depths=16 \
    --ops=64 --routing=adaptive --faults=link-kill@10us \
    --out-dir="$REPO_ROOT/BENCH_sweep"
"$BUILD_DIR/bench_sweep" --nodes=64 --topo=4x4x4 --sizes=64 --depths=16 \
    --ops=64 --faults=incast \
    --out-dir="$REPO_ROOT/BENCH_sweep"
# Silent drop window, workload retries off: recovery is carried by RMC
# retransmission alone (retransmits > 0, unrecoverable == 0).
"$BUILD_DIR/bench_sweep" --nodes=64 --topo=4x4x4 --sizes=64 --depths=16 \
    --ops=64 --faults=drop@10us+100us --max-attempts=6 --retries=0 \
    --out-dir="$REPO_ROOT/BENCH_sweep"

echo "== fig7_remote_read =="
"$BUILD_DIR/bench_fig7_remote_read" \
    --out="$REPO_ROOT/BENCH_fig7_remote_read.json" \
    >"$REPO_ROOT/BENCH_fig7_remote_read.txt"

echo "== fig1, fig8, fig9 tables =="
"$BUILD_DIR/bench_fig1_netpipe" --out="$REPO_ROOT/BENCH_fig1_netpipe.json"
"$BUILD_DIR/bench_fig8_send_receive" \
    --out="$REPO_ROOT/BENCH_fig8_send_receive.json"
"$BUILD_DIR/bench_fig9_pagerank" --out="$REPO_ROOT/BENCH_fig9_pagerank.json"

echo "== schema and identities (every tracked artifact) =="
python3 "$CHECK" --obs-period-ns=10000
