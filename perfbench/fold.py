#!/usr/bin/env python3
"""Fold a traced perfbench run into a per-layer table.

Usage: python3 perfbench/fold.py TRACE.json

TRACE.json is the Chrome trace a `--trace 1` run writes to
.bench_build/trace-<workload>.json. When TRACE.json.layers.json (the
run's measured layer numbers) sits beside it, the parallel speedup with
its bases and the telemetry overhead ratio are printed too. Every span is attributed to the
repository module that records it; a span's self time is its duration
minus the part of it that spans nested inside it on the same thread
cover. Besides the table this computes the trace-derived per-layer
metrics run.py reports: per-pass times, the hyperplane plane-time
distribution and its fixed-cost/per-point fit, and the daemon's miss
overhead. Standard library only.
"""

import json
import statistics
import sys

# Span (category, name) -> repository module that records it. Spans in
# the "bench" category are the benchmark's own, around its calls into
# the public API.
PASS_METRICS = {
    "Parse": "frontend.parse_ms",
    "Sema": "frontend.sema_ms",
    "DepGraph": "graph.depgraph_ms",
    "Schedule": "core.schedule_ms",
    "LoopMerge": "core.loop_merge_ms",
    "Hyperplane": "transform.hyperplane_ms",
    "ExactBounds": "transform.exact_bounds_ms",
    "Emit": "codegen.emit_ms",
}
PASS_LAYERS = {
    "Parse": "frontend", "Sema": "frontend", "DepGraph": "graph",
    "Schedule": "core", "LoopMerge": "core", "Hyperplane": "transform",
    "ExactBounds": "transform", "Emit": "codegen",
}
SPAN_LAYERS = {
    ("wavefront", "hyperplane"): "runtime.wavefront",
    ("wavefront", "wavefront-run"): "runtime.wavefront",
    ("engine", "tier-select"): "runtime.engine_host",
    ("native", "cc-compile"): "runtime.native_engine",
    ("native", "native-parallel"): "runtime.interpreter",
    ("service", "service-request"): "service",
    ("batch", "compile-unit"): "driver",
    ("batch", "compile-all"): "driver",
}


def layer_of(event):
    cat, name = event.get("cat", ""), event.get("name", "")
    if cat == "pass":
        return PASS_LAYERS.get(name, "driver")
    if cat == "bench":
        return "bench"
    return SPAN_LAYERS.get((cat, name), cat)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]


def self_times(events):
    """Self time (us) per event, in input order: duration minus the
    union of the direct children nested in it on the same thread."""
    result = [0] * len(events)
    by_tid = {}
    for i, e in enumerate(events):
        by_tid.setdefault(e.get("tid", 0), []).append(i)
    for idxs in by_tid.values():
        # Parents first: earlier start, then longer duration.
        idxs.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        stack = []  # (index, end_us, covered_us)
        def close(entry):
            i, _, covered = entry
            result[i] = max(0, events[i]["dur"] - covered)
        for i in idxs:
            ts, end = events[i]["ts"], events[i]["ts"] + events[i]["dur"]
            while stack and stack[-1][1] <= ts:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                stack[-1] = (parent[0], parent[1], parent[2] + (min(end, parent[1]) - ts))
            stack.append((i, end, 0))
        while stack:
            close(stack.pop())
    return result


def fit_line(xs, ys):
    """Least-squares y = a + b x; (a, b), or (0, 0) when degenerate."""
    n = len(xs)
    if n < 2:
        return 0.0, 0.0
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0, 0.0
    b = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return my - b * mx, b


def quantile(values, p):
    if not values:
        return 0.0
    v = sorted(values)
    rank = p / 100.0 * (len(v) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (rank - lo)


def fold(events):
    """Return (table_rows, metrics) for one trace."""
    selfs = self_times(events)
    rows = {}
    for e, s in zip(events, selfs):
        key = (layer_of(e), e.get("cat", ""), e.get("name", ""))
        row = rows.setdefault(key, [0, 0, 0])
        row[0] += 1
        row[1] += e["dur"]
        row[2] += s
    table = sorted(((k[0], k[1], k[2], v[0], v[1] / 1000.0, v[2] / 1000.0)
                    for k, v in rows.items()), key=lambda r: -r[5])

    # A pass's own time is its self time: the Hyperplane pass runs the
    # transformed module's Sema/Schedule/Emit as nested passes.
    metrics = {}
    for name, metric in PASS_METRICS.items():
        own = [s / 1000.0 for e, s in zip(events, selfs)
               if e.get("cat") == "pass" and e.get("name") == name]
        metrics[metric] = statistics.median(own) if own else 0.0

    planes = [e for e in events
              if e.get("cat") == "wavefront" and e.get("name") == "hyperplane"]
    plane_ms = [e["dur"] / 1000.0 for e in planes]
    metrics["wavefront.plane_ms_p50"] = quantile(plane_ms, 50)
    metrics["wavefront.plane_ms_p99"] = quantile(plane_ms, 99)
    xs = [float(e.get("args", {}).get("points", 0)) for e in planes]
    a, b = fit_line(xs, [float(e["dur"]) for e in planes])
    metrics["wavefront.plane_overhead_us"] = a
    metrics["wavefront.point_ns"] = b * 1000.0

    # Daemon requests: a miss round trip minus the pass time spent on its
    # unit (the unit name is unique to the miss).
    pass_us = {}
    for e, s in zip(events, selfs):
        if e.get("cat") == "pass":
            unit = e.get("args", {}).get("unit")
            pass_us[unit] = pass_us.get(unit, 0) + s
    overheads = [(e["dur"] - pass_us.get(e["args"].get("unit"), 0)) / 1000.0
                 for e in events
                 if e.get("cat") == "bench" and e.get("name") == "client round trip"
                 and e.get("args", {}).get("kind") == "miss"]
    metrics["service.miss_overhead_ms"] = statistics.median(overheads) if overheads else 0.0
    return table, metrics


def format_table(table):
    lines = [f"{'layer':<22} {'span':<26} {'count':>8} {'total ms':>12} {'self ms':>12} {'self %':>7}"]
    grand = sum(r[5] for r in table) or 1.0
    for layer, cat, name, count, total, self_ms in table:
        lines.append(f"{layer:<22} {(cat + '/' + name)[:26]:<26} {count:>8} "
                     f"{total:>12.3f} {self_ms:>12.3f} {100.0 * self_ms / grand:>6.1f}%")
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    table, metrics = fold(load(argv[1]))
    print(format_table(table))
    print()
    try:
        with open(argv[1] + ".layers.json") as f:
            measured = json.load(f)
    except OSError:
        measured = {}
    for k in ("parallel.speedup_vs_seq", "parallel.seq_run_ms_p50",
              "parallel.par_run_ms_p50", "telemetry.overhead_ratio",
              "telemetry.dropped_events"):
        if k in measured:
            metrics[k] = measured[k]
    for k in sorted(metrics):
        print(f"{k:<34} {metrics[k]:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
