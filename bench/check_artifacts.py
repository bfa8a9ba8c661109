#!/usr/bin/env python3
"""Schema and identity checker for every benchmark artifact (stdlib only).

  check_artifacts.py [PATH ...] [--expect GLOB ...] [--obs-period-ns N]
      Check the artifacts a PATH names (a file, or a directory's
      BENCH_*/SWEEP_*/... files and its BENCH_sweep/; default: the repo)
      against the field table of their "bench" kind (every listed field
      present, no other field) and the accounting identities. Each GLOB
      must match at least one checked file; with --obs-period-ns, every
      OBS sidecar must have sampled at period N.

  check_artifacts.py --compare OLD NEW
      Value-level diff for a re-baseline and for the pin_* ctests:
      every simulated value must be identical and non-JSON tables
      byte-identical; a field or an artifact on one side only fails;
      host-time fields are only listed.

Exit status 1 on any violation.
"""

import argparse
import fnmatch
import json
import sys
from pathlib import Path

SCHEMA = 4
REPO_ROOT = Path(__file__).resolve().parent.parent
PREFIXES = ("BENCH_", "SWEEP_", "FIG9_", "DEGRADED_", "OBS_", "TABLE2_")
HOST_FIELDS = {"host_seconds", "wall_seconds", "peak_rss_bytes",
               # sim_core's rates are host-time measurements too
               "events_per_sec", "ns_per_event", "legacy_events_per_sec",
               "speedup_vs_legacy", "coro_switches_per_sec",
               "fabric_hops_per_sec"}

FIG7_ROW = ["size_bytes", "lat_1sided_ns", "lat_2sided_ns"]
FIG8_ROW = ["size_bytes", "tuned_threshold_bytes", "lat_pull_ns",
            "lat_push_ns", "lat_tuned_ns"]
FIG9_ROW = ["nodes", "vertices", "baseline_us", "speedup_shm",
            "speedup_bulk", "speedup_fine", "fine_remote_ops"]
# bench kind -> (top-level fields, {array field: fields of each row})
KINDS = {
    "sweep": ([
        "workload", "nodes", "topology", "request_bytes", "qp_depth",
        "qp_count", "doorbell_batching", "routing", "fault_scenario",
        "ops", "mops", "gbps", "goodput_mops", "mean_latency_ns",
        "p50_latency_ns", "p95_latency_ns", "p99_latency_ns", "ok_ops",
        "failed_ops", "dropped_messages", "retransmits", "dup_suppressed",
        "unrecoverable", "sim_us", "host_seconds"], {}),
    "obs": (["label", "period_ns", "series_elided", "series",
             "series_count"],
            {"series": ["name", "unit", "dropped", "samples"]}),
    "table2_iops_vs_qps": (["qp_count", "qp_depth", "doorbell_batching",
                            "request_bytes", "mops"], {}),
    "table2_comparison": (["platforms"], {"platforms": [
        "platform", "max_bw_gbps", "read_rtt_us", "fetch_add_us", "mops"]}),
    "sim_core": ([
        "events_per_sec", "ns_per_event", "legacy_events_per_sec",
        "speedup_vs_legacy", "allocs_per_event_steady_state",
        "coro_switches_per_sec", "frame_pool_reuse_ratio",
        "allocs_per_coro_spawn", "fabric_hops_per_sec",
        "allocs_per_hop_steady_state", "peak_rss_bytes"], {}),
    "fig1_netpipe": (["rows"], {"rows": [
        "size_bytes", "latency_us", "bandwidth_gbps"]}),
    "fig7_remote_read": (["local_dram_ns", "hw", "emu"], {
        "hw": FIG7_ROW + ["bw_1sided_gbps", "bw_2sided_gbps", "mops_1sided"],
        "emu": FIG7_ROW}),
    "fig8_send_receive": (["hw", "emu"], {
        "hw": FIG8_ROW + ["bw_pull_gbps", "bw_push_gbps", "bw_tuned_gbps"],
        "emu": FIG8_ROW}),
    "fig9_pagerank": (["hw", "emu"], {"hw": FIG9_ROW, "emu": FIG9_ROW}),
}
PAGERANK_FIELDS = ["vertices", "edges", "supersteps", "cross_edge_fraction"]


def artifacts(path, suffixes=(".json",)):
    if path.is_file():
        return [path]
    files = [*path.iterdir(), *path.glob("BENCH_sweep/*")]
    return sorted(f for f in files if f.name.startswith(PREFIXES)
                  and f.suffix in suffixes and f.is_file())


def identities(name, d, obs_period_ns):
    """Yields one message per violated accounting identity."""
    if d["bench"] == "sweep":
        ok, failed, ops = d["ok_ops"], d["failed_ops"], d["ops"]
        if ok + failed != ops:
            yield f"ok_ops {ok} + failed_ops {failed} != ops {ops}"
        scenario = d["fault_scenario"]
        if scenario.startswith("node-kill@") and not (
                d["dropped_messages"] > 0 and d["goodput_mops"] > 0):
            yield "node-kill cell dropped nothing or made no progress"
        # A transient fault (a drop window, or a node kill with a
        # recovery window +D) must be ridden out by RMC retransmission
        # alone: every op completes and no transfer is given up.
        transient = scenario.startswith("drop@") or (
            scenario.startswith("node-kill@") and "+" in scenario)
        if transient and not (
                d["dropped_messages"] > 0 and d["retransmits"] > 0
                and d["unrecoverable"] == 0 and ok == ops):
            yield (f"{scenario} cell not recovered by retransmission: "
                   f"dropped {d['dropped_messages']}, retransmits "
                   f"{d['retransmits']}, unrecoverable "
                   f"{d['unrecoverable']}, ok_ops {ok} of {ops}")
        if name.startswith("FIG9_") and (d["workload"] != "pagerank"
                                         or d["topology"].count("x") != 2):
            yield f"FIG9 cell is {d['workload']} on {d['topology']}"
    elif d["bench"] == "obs":
        if d["series_count"] != len(d["series"]):
            yield f"series_count {d['series_count']} != {len(d['series'])}"
        if obs_period_ns is not None and d["period_ns"] != obs_period_ns:
            yield f"period_ns {d['period_ns']}, expected {obs_period_ns}"
        for s in d["series"]:
            ts = [t for t, _ in s["samples"]]
            if ts != sorted(ts):
                yield f"series {s['name']}: timestamps not sorted"


def field_errors(where, d, fields):
    """A stale or hand-edited artifact fails on a missing field and on
    one its kind does not list."""
    return ([f"{where}missing field {k}" for k in fields if k not in d] +
            [f"{where}unexpected field {k}" for k in d if k not in fields])


def check_file(f, obs_period_ns):
    try:
        d = json.loads(f.read_text())
    except ValueError as e:
        return [f"invalid JSON: {e}"]
    kind = d.get("bench") if isinstance(d, dict) else None
    if kind not in KINDS:
        return [f"unknown bench kind {kind!r}"]
    if d.get("schema") != SCHEMA:
        return [f"schema {d.get('schema')!r}, expected {SCHEMA}"]
    fields, rows = KINDS[kind]
    if kind == "sweep" and d.get("workload") == "pagerank":
        fields = fields + PAGERANK_FIELDS
    errors = field_errors("", d, ["bench", "schema", *fields])
    if rows and not any(d.get(key) for key in rows):
        errors.append(f"no rows in {' or '.join(rows)}")
    for key, row_fields in rows.items():
        for i, row in enumerate(d.get(key, [])):
            errors += field_errors(f"{key}[{i}]: ", row, row_fields)
    return errors or list(identities(f.name, d, obs_period_ns))


def check(paths, expects, obs_period_ns):
    files = [f for p in paths for f in artifacts(p)]
    errors = [f"{f}: {e}" for f in files
              for e in check_file(f, obs_period_ns)]
    errors += [f"no artifact matches {g}" for g in expects
               if not any(fnmatch.fnmatch(f.name, g) for f in files)]
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print(f"{len(files)} artifact(s) checked, {len(errors)} failure(s)")
    return 1 if errors or not files else 0


def leaves(value, path):
    """Flatten nested JSON into {"hw[2].lat_1sided_ns": scalar}."""
    if isinstance(value, dict):
        items = [(f"{path}.{k}" if path else k, v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        return {path: value}
    return {p: x for k, v in items for p, x in leaves(v, k).items()}


def field(path):
    return path.rsplit(".", 1)[-1].split("[", 1)[0]


def compare_file(name, old, new):
    """Prints one summary line; returns the number of changed values."""
    if old.suffix != ".json":
        same = old.read_bytes() == new.read_bytes()
        print(f"{name}: {'byte-identical' if same else 'DIFFERS'}")
        return 0 if same else 1
    a = leaves(json.loads(old.read_text()), "")
    b = leaves(json.loads(new.read_text()), "")
    exact, host, changed = 0, set(), []
    for p in sorted(a.keys() & b.keys() - {"schema"}):
        x, y = a[p], b[p]
        if field(p) in HOST_FIELDS:
            host |= {field(p)} if x != y else set()
        elif x == y:
            exact += 1
        else:
            changed.append(f"  CHANGED {p}: {x!r} -> {y!r}")
    line = (f"{name}: schema {a.get('schema')} -> {b.get('schema')}, "
            f"{exact} values identical, {len(changed)} changed")
    for label, names in (("host-time differs", host),
                         ("added", {field(p) for p in b.keys() - a.keys()}),
                         ("removed", {field(p) for p in a.keys() - b.keys()})):
        if names:
            line += f"; {label}: {', '.join(sorted(names))}"
    print("\n".join([line] + changed))
    return len(changed) + len(a.keys() ^ b.keys())


def compare(old_root, new_root):
    if old_root.is_file():
        old, new = {new_root.name: old_root}, {new_root.name: new_root}
    else:
        old, new = ({str(f.relative_to(r)): f
                     for f in artifacts(r, (".json", ".txt"))}
                    for r in (old_root, new_root))
    changes = sum(compare_file(k, old[k], new[k])
                  for k in sorted(old.keys() & new.keys()))
    for k in sorted(new.keys() - old.keys()):
        print(f"{k}: NEW")
    for k in sorted(old.keys() - new.keys()):
        print(f"{k}: REMOVED")
    changes += len(old.keys() ^ new.keys())
    print(f"{changes} simulated value(s), field(s), table(s) or "
          f"artifact(s) changed")
    return 1 if changes else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("paths", nargs="*", type=Path)
    ap.add_argument("--expect", action="append", default=[], metavar="GLOB")
    ap.add_argument("--obs-period-ns", type=int, metavar="N")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    return check(args.paths or [REPO_ROOT], args.expect, args.obs_period_ns)


if __name__ == "__main__":
    sys.exit(main())
