#!/usr/bin/env python3
"""Span reducer for a traced benchmark run.

A traced run (run.py --trace 1) leaves two files in its work directory:
spans.tsv, one span per row (id, parent, request, name, start_ns, end_ns),
and trace_meta.json (the end-to-end span, the measured stage spans that
should cover it, and the traced and untraced end-to-end readings). The
reducer prints, one "name value unit" line each:

  * each layer's self time: a span's duration minus the part of it its
    child spans cover, summed over the layer's spans (the layer is the
    span name up to the first dot);
  * each stage's median, the end-to-end span's median, and how much of
    the latter the stage medians cover together. Every stage is a
    measured span, so the coverage is a check, not an identity;
  * the tracing overhead: traced minus untraced end-to-end.

    python3 perfbench/reduce_spans.py <work-dir>
"""

import json
import os
import statistics
import sys
from collections import defaultdict


def load_spans(path):
    spans = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip() or line.startswith("#"):
                continue
            span_id, parent, request, name, start, end = line.rstrip("\n").split("\t")
            spans[int(span_id)] = (int(parent), int(request), name, int(start), int(end))
    return spans


def covered_ns(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0
    run_lo = run_hi = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if run_hi is None or start > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = start, end
        else:
            run_hi = max(run_hi, end)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def layer_self_ms(spans):
    children = defaultdict(list)
    for parent, _, _, start, end in spans.values():
        if parent in spans:
            children[parent].append((start, end))
    totals = defaultdict(float)
    for span_id, (_, _, name, start, end) in spans.items():
        self_ns = (end - start) - covered_ns(children[span_id], start, end)
        totals[name.split(".")[0]] += self_ns / 1e6
    return dict(totals)


def medians_ms(spans, names):
    durations = defaultdict(list)
    for _, _, name, start, end in spans.values():
        durations[name].append((end - start) / 1e6)
    return {name: statistics.median(durations[name]) if durations[name] else 0.0
            for name in names}


def report(workdir, out=sys.stdout):
    spans = load_spans(os.path.join(workdir, "spans.tsv"))
    with open(os.path.join(workdir, "trace_meta.json"), encoding="utf-8") as handle:
        meta = json.load(handle)
    print(f"reduce.spans {len(spans)} count", file=out)
    for layer, ms in sorted(layer_self_ms(spans).items()):
        print(f"reduce.self_ms.{layer} {ms:.6f} ms", file=out)
    stages = medians_ms(spans, meta["stage_spans"])
    for name, ms in stages.items():
        print(f"reduce.stage_p50_ms.{name} {ms:.6f} ms", file=out)
    e2e = medians_ms(spans, [meta["e2e_span"]])[meta["e2e_span"]]
    coverage = sum(stages.values()) / e2e if e2e else 0.0
    print(f"reduce.e2e_p50_ms.{meta['e2e_span']} {e2e:.6f} ms", file=out)
    print(f"reduce.stage_coverage {coverage:.6f} ratio", file=out)
    overhead = meta["traced_e2e_ms"] - meta["untraced_e2e_ms"]
    print(f"reduce.tracing_overhead_ms {overhead:.6f} ms", file=out)
    out.flush()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    report(sys.argv[1])
