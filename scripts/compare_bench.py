#!/usr/bin/env python3
"""Diff a fresh bench_regression report against the last committed one.

    scripts/compare_bench.py fresh.json [--baseline BENCH_PR4.json]
                             [--tolerance 0.10]

Without --baseline, the newest committed BENCH_PR*.json in the repo root
(highest PR number) is used. Exits non-zero when any tracked metric
regresses by more than the tolerance (default 10%), or when a
results_identical flag that was true in the baseline turned false.

Tracked metrics are listed in TRACKED below: "lower is better" wall times
and "higher is better" throughputs. Metrics absent from either file are
skipped with a note — the schema is allowed to grow between PRs — so a
new section never breaks the comparison, and a dropped one is visible in
the output without failing it.
"""

import argparse
import glob
import json
import os
import re
import sys

# (json path, direction) — direction is "lower" or "higher" (better).
TRACKED = [
    (("micro_lca", "sparse_qps"), "higher"),
    (("micro_hungarian", "sparse_qps"), "higher"),
    (("deadline_overhead", "control_seconds"), "lower"),
    # Serving sections from bench_search (docs/serving.md): the snapshot
    # speedup is a ratio of the two cold-start paths, so it is stable
    # where the raw load_seconds (milliseconds) would be noise-dominated.
    (("serving_cold_start", "snapshot_speedup"), "higher"),
    # Write path: the per-publish delta bytes are deterministic (a pure
    # function of the workload), so any growth means the delta layer
    # started copying state it used to share. The fsync-bound acked
    # latencies are too disk-noisy to gate on and are reported only.
    (("serving_write_path", "delta_publish_bytes_avg"), "lower"),
    # Instrumentation: the metered router's steady-state QPS must keep up
    # with the baseline run's (its overhead_pct also has an absolute <1%
    # gate below, independent of any baseline).
    (("serving_instrumentation", "instrumented_qps"), "higher"),
    # Sharded scatter-gather: the 8-shard/8-client speedup over the
    # single-index path is a ratio of two same-run measurements, so it is
    # stable where raw QPS drifts with the machine.
    (("serving_sharded", "speedup_8shard_8client"), "higher"),
]

# fig11's plus-mode verify time (lower is better). Reports written while
# the K-Join+ similarity cache existed timed this same cache-less run as
# cache_off_verify_seconds, so an older baseline is read under that name.
FIG11_VERIFY = ("fig11_verify", "verify_seconds")
FIG11_VERIFY_BEFORE_CACHE_DELETION = ("fig11_verify", "cache_off_verify_seconds")

# Absolute gates checked on the fresh report alone — properties the
# current build must hold regardless of what the baseline measured.
# (json path, ceiling): fails when the value is present and >= ceiling.
ABSOLUTE_CEILINGS = [
    # The router's metrics plus a health poll must cost <1% QPS at steady
    # state vs a router without metrics (docs/serving.md).
    (("serving_instrumentation", "overhead_pct"), 1.0),
]

# Absolute floors checked on the fresh report alone.
# (json path, floor): fails when the value is present and < floor.
ABSOLUTE_FLOORS = [
    # The scatter-gather cascade with progressive pruning must beat the
    # single-index path by >=2.5x at 8 shards / 8 clients on the top-1
    # lookup workload (docs/serving.md, "Sharded serving").
    (("serving_sharded", "speedup_8shard_8client"), 2.5),
]

# fig9_filter, fig10_filter_delta, fig14_threads, serving_qps and
# serving_delta_search rows are arrays keyed by scheme / delta / thread
# count / client count / delta depth.
TRACKED_FIG9 = "total_seconds"  # per scheme, lower is better
TRACKED_FIG10 = "filter_seconds"  # per delta, lower is better
TRACKED_FIG14 = "total_seconds"  # per thread count, lower is better
TRACKED_SERVING = "qps"  # per client count, higher is better
TRACKED_DELTA = "delta_qps"  # per delta depth, higher is better

IDENTICAL_FLAGS = [
    ("micro_hungarian", "results_identical"),
    ("deadline_overhead", "results_identical"),
]


def lookup(report, path):
    node = report
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def latest_committed_baseline(repo_root):
    candidates = []
    for name in glob.glob(os.path.join(repo_root, "BENCH_PR*.json")):
        match = re.search(r"BENCH_PR(\d+)\.json$", name)
        if match:
            candidates.append((int(match.group(1)), name))
    if not candidates:
        return None
    return max(candidates)[1]


def compare_scalar(label, base, fresh, direction, tolerance, failures):
    if base is None or fresh is None:
        print(f"  skip  {label}: missing in {'baseline' if base is None else 'fresh run'}")
        return
    if not isinstance(base, (int, float)) or not isinstance(fresh, (int, float)) or base <= 0:
        print(f"  skip  {label}: not comparable ({base!r} vs {fresh!r})")
        return
    if direction == "lower":
        change = fresh / base - 1.0  # positive = slower
    else:
        change = base / fresh - 1.0 if fresh > 0 else float("inf")
    status = "ok   "
    if change > tolerance:
        status = "FAIL "
        failures.append(f"{label}: {change * 100.0:+.1f}% vs tolerance {tolerance * 100.0:.0f}%")
    print(f"  {status}{label}: {base:g} -> {fresh:g} ({change * 100.0:+.1f}% regression)")


def index_rows(rows, key):
    return {row[key]: row for row in rows if isinstance(row, dict) and key in row}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="fresh bench_regression JSON report")
    parser.add_argument("--baseline", help="committed report to compare against")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional regression per metric (default 0.10)")
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baseline_path = args.baseline or latest_committed_baseline(repo_root)
    if baseline_path is None:
        print("no committed BENCH_PR*.json found; nothing to compare against")
        return 0
    with open(baseline_path) as f:
        base = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)
    print(f"baseline: {baseline_path}")
    print(f"fresh:    {args.fresh}")

    failures = []
    for path, direction in TRACKED:
        compare_scalar("/".join(path), lookup(base, path), lookup(fresh, path), direction,
                       args.tolerance, failures)

    base_verify = lookup(base, FIG11_VERIFY)
    if base_verify is None:
        base_verify = lookup(base, FIG11_VERIFY_BEFORE_CACHE_DELETION)
    compare_scalar("/".join(FIG11_VERIFY), base_verify, lookup(fresh, FIG11_VERIFY), "lower",
                   args.tolerance, failures)

    for path, ceiling in ABSOLUTE_CEILINGS:
        label = "/".join(path)
        value = lookup(fresh, path)
        if not isinstance(value, (int, float)):
            print(f"  skip  {label}: absent from fresh run (absolute ceiling {ceiling:g})")
            continue
        if value >= ceiling:
            failures.append(f"{label}: {value:g} breaches absolute ceiling {ceiling:g}")
            print(f"  FAIL {label}: {value:g} (absolute ceiling {ceiling:g})")
        else:
            print(f"  ok   {label}: {value:g} (absolute ceiling {ceiling:g})")

    for path, floor in ABSOLUTE_FLOORS:
        label = "/".join(path)
        value = lookup(fresh, path)
        if not isinstance(value, (int, float)):
            print(f"  skip  {label}: absent from fresh run (absolute floor {floor:g})")
            continue
        if value < floor:
            failures.append(f"{label}: {value:g} under absolute floor {floor:g}")
            print(f"  FAIL {label}: {value:g} (absolute floor {floor:g})")
        else:
            print(f"  ok   {label}: {value:g} (absolute floor {floor:g})")

    base_fig9 = index_rows(base.get("fig9_filter", []), "scheme")
    fresh_fig9 = index_rows(fresh.get("fig9_filter", []), "scheme")
    for scheme in base_fig9:
        compare_scalar(f"fig9_filter[{scheme}]/{TRACKED_FIG9}",
                       base_fig9[scheme].get(TRACKED_FIG9),
                       fresh_fig9.get(scheme, {}).get(TRACKED_FIG9),
                       "lower", args.tolerance, failures)

    base_fig10 = index_rows(base.get("fig10_filter_delta", []), "delta")
    fresh_fig10 = index_rows(fresh.get("fig10_filter_delta", []), "delta")
    for delta in base_fig10:
        compare_scalar(f"fig10_filter_delta[{delta}]/{TRACKED_FIG10}",
                       base_fig10[delta].get(TRACKED_FIG10),
                       fresh_fig10.get(delta, {}).get(TRACKED_FIG10),
                       "lower", args.tolerance, failures)
        base_flag = base_fig10[delta].get("results_identical")
        fresh_flag = fresh_fig10.get(delta, {}).get("results_identical")
        if base_flag is True and fresh_flag is False:
            failures.append(f"fig10_filter_delta[{delta}]/results_identical flipped to false")

    base_acc = lookup(base, ("micro_intersect", "accumulate"))
    fresh_acc = lookup(fresh, ("micro_intersect", "accumulate"))
    if isinstance(base_acc, dict):
        compare_scalar("micro_intersect/accumulate/dispatched_mops",
                       base_acc.get("dispatched_mops"),
                       (fresh_acc or {}).get("dispatched_mops"),
                       "higher", args.tolerance, failures)
        if base_acc.get("identical") is True and \
                (fresh_acc or {}).get("identical") is False:
            failures.append("micro_intersect/accumulate/identical flipped to false")

    base_fig14 = index_rows(base.get("fig14_threads", []), "threads")
    fresh_fig14 = index_rows(fresh.get("fig14_threads", []), "threads")
    for threads in base_fig14:
        compare_scalar(f"fig14_threads[{threads}]/{TRACKED_FIG14}",
                       base_fig14[threads].get(TRACKED_FIG14),
                       fresh_fig14.get(threads, {}).get(TRACKED_FIG14),
                       "lower", args.tolerance, failures)
        base_flag = base_fig14[threads].get("results_identical")
        fresh_flag = fresh_fig14.get(threads, {}).get("results_identical")
        if base_flag is True and fresh_flag is False:
            failures.append(f"fig14_threads[{threads}]/results_identical flipped to false")

    base_serving = index_rows(base.get("serving_qps", []), "clients")
    fresh_serving = index_rows(fresh.get("serving_qps", []), "clients")
    for clients in base_serving:
        compare_scalar(f"serving_qps[{clients}]/{TRACKED_SERVING}",
                       base_serving[clients].get(TRACKED_SERVING),
                       fresh_serving.get(clients, {}).get(TRACKED_SERVING),
                       "higher", args.tolerance, failures)
        base_flag = base_serving[clients].get("results_identical")
        fresh_flag = fresh_serving.get(clients, {}).get("results_identical")
        if base_flag is True and fresh_flag is False:
            failures.append(f"serving_qps[{clients}]/results_identical flipped to false")

    base_delta = index_rows(base.get("serving_delta_search", []), "depth")
    fresh_delta = index_rows(fresh.get("serving_delta_search", []), "depth")
    for depth in base_delta:
        compare_scalar(f"serving_delta_search[{depth}]/{TRACKED_DELTA}",
                       base_delta[depth].get(TRACKED_DELTA),
                       fresh_delta.get(depth, {}).get(TRACKED_DELTA),
                       "higher", args.tolerance, failures)
        base_flag = base_delta[depth].get("results_identical")
        fresh_flag = fresh_delta.get(depth, {}).get("results_identical")
        if base_flag is True and fresh_flag is False:
            failures.append(f"serving_delta_search[{depth}]/results_identical flipped to false")

    # serving_sharded rows are keyed by (shards, clients); identity at
    # every shard count is the determinism contract, so any flip fails.
    def sharded_rows(report, key):
        rows = lookup(report, ("serving_sharded", key)) or []
        return {(row.get("shards", 0), row["clients"]): row
                for row in rows if isinstance(row, dict) and "clients" in row}

    for key in ("single_index", "sharded"):
        base_rows = sharded_rows(base, key)
        fresh_rows = sharded_rows(fresh, key)
        for row_key in base_rows:
            label = f"serving_sharded/{key}[shards={row_key[0]},clients={row_key[1]}]"
            compare_scalar(f"{label}/qps", base_rows[row_key].get("qps"),
                           fresh_rows.get(row_key, {}).get("qps"),
                           "higher", args.tolerance, failures)
            base_flag = base_rows[row_key].get("results_identical")
            fresh_flag = fresh_rows.get(row_key, {}).get("results_identical")
            if base_flag is True and fresh_flag is False:
                failures.append(f"{label}/results_identical flipped to false")
    # Identity must also hold absolutely on the fresh run, baseline or not.
    fresh_sharded = lookup(fresh, ("serving_sharded", "sharded")) or []
    for row in fresh_sharded:
        if isinstance(row, dict) and row.get("results_identical") is False:
            failures.append(
                f"serving_sharded/sharded[shards={row.get('shards')},"
                f"clients={row.get('clients')}]/results_identical is false")
    fresh_prune = lookup(fresh, ("serving_sharded", "tau_prune"))
    if isinstance(fresh_prune, dict) and fresh_prune.get("bound_tightenings", 0) <= 0:
        failures.append("serving_sharded/tau_prune/bound_tightenings is zero — "
                        "the progressive bound never engaged")

    # serving_network rows are keyed by connection count. Identity is the
    # wire contract — loopback answers must be byte-identical to the
    # in-process router — so any false flag fails absolutely, and the
    # network path must hold >=0.5x the in-process QPS at 8 connections
    # regardless of what the baseline measured (docs/serving.md,
    # "Network protocol").
    base_net = index_rows(lookup(base, ("serving_network", "network")) or [],
                          "connections")
    fresh_net = index_rows(lookup(fresh, ("serving_network", "network")) or [],
                           "connections")
    for conns in base_net:
        compare_scalar(f"serving_network[{conns}]/qps",
                       base_net[conns].get("qps"),
                       fresh_net.get(conns, {}).get("qps"),
                       "higher", args.tolerance, failures)
    for conns, row in sorted(fresh_net.items()):
        if row.get("results_identical") is False:
            failures.append(f"serving_network[{conns}]/results_identical is false")
    net_floor = 0.5
    net_row8 = fresh_net.get(8)
    if isinstance(net_row8, dict) and \
            isinstance(net_row8.get("qps_vs_inprocess"), (int, float)):
        ratio = net_row8["qps_vs_inprocess"]
        if ratio < net_floor:
            failures.append(f"serving_network[8]/qps_vs_inprocess: {ratio:g} "
                            f"under absolute floor {net_floor:g}")
            print(f"  FAIL serving_network[8]/qps_vs_inprocess: {ratio:g} "
                  f"(absolute floor {net_floor:g})")
        else:
            print(f"  ok   serving_network[8]/qps_vs_inprocess: {ratio:g} "
                  f"(absolute floor {net_floor:g})")
    elif fresh_net:
        print("  skip  serving_network[8]/qps_vs_inprocess: absent from fresh run")

    for path in IDENTICAL_FLAGS:
        base_flag = lookup(base, path)
        fresh_flag = lookup(fresh, path)
        if base_flag is True and fresh_flag is False:
            failures.append("/".join(path) + " flipped to false")

    if failures:
        print("\nregressions beyond tolerance:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nno tracked metric regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
