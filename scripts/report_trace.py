#!/usr/bin/env python3
"""Render a captured ``repro.obs`` JSONL trace into a time breakdown.

Reads the event stream a :class:`repro.obs.JsonlSink` produced (e.g. via
``REPRO_TRACE=trace.jsonl``) and prints, per span name:

* ``count`` — how many spans closed under that name;
* ``cum`` — cumulative wall time (sum of span durations);
* ``self`` — cumulative time minus the time spent in *direct* child
  spans, i.e. the time attributable to the span's own code;
* ``p50`` / ``p95`` — duration percentiles (nearest-rank) across the
  spans of that name.

Every span name with child spans also gets an ``unattributed`` row: its
self time as a share of its cumulative time, i.e. how much of the
parent no child span accounts for (a fully traced ``api.build`` reads
near 0%).

Counters are reported as totals and histogram series as
count/p50/p95/max — the same nearest-rank percentiles used for spans.

Multi-process traces additionally get a per-process table attributing
span counts and self time to each pid.

Usage::

    REPRO_TRACE=trace.jsonl python -m pytest ... # or any entry point
    python scripts/report_trace.py trace.jsonl
    python scripts/report_trace.py trace.jsonl --json   # machine-readable

Traces may span several processes (the experiment engine forwards worker
events to the parent); span ids are only unique per process, so parent
links are resolved per ``(pid, id)``.  A span whose parent never closed
(or lives in an untraced ancestor process) is treated as a root.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence


def load_events(path: str) -> List[Dict[str, Any]]:
    """Read one JSON event per line, skipping blank lines."""
    events: List[Dict[str, Any]] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"cannot read trace file: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError as exc:
                raise SystemExit(
                    f"{path}:{lineno}: not valid JSON ({exc})"
                ) from exc
    return events


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1]


def build_report(events: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate raw events into the per-name breakdown tables."""
    events = list(events)
    spans = [e for e in events if e.get("type") == "span"]
    counters: Dict[str, float] = defaultdict(float)
    hists: Dict[str, List[float]] = defaultdict(list)
    for e in events:
        kind = e.get("type")
        if kind == "counter":
            counters[e["name"]] += e["value"]
        elif kind == "hist":
            hists[e["name"]].append(e["value"])

    # Self time = duration minus the durations of *direct* children.
    # Children arrive before their parent in the stream (a span is
    # emitted when it closes), but resolution is order-independent: sum
    # child durations per (pid, parent-id) key, then subtract.
    child_time: Dict[tuple, float] = defaultdict(float)
    for e in spans:
        if e.get("parent") is not None:
            child_time[(e.get("pid"), e["parent"])] += e["dur"]

    per_name: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: {"dur": [], "self": []}
    )
    per_pid: Dict[Any, Dict[str, Any]] = {}
    parents = set()
    for e in spans:
        key = (e.get("pid"), e["id"])
        if key in child_time:
            parents.add(e["name"])
        own = e["dur"] - child_time.get(key, 0.0)
        per_name[e["name"]]["dur"].append(e["dur"])
        per_name[e["name"]]["self"].append(max(own, 0.0))
        pid = e.get("pid")
        row = per_pid.setdefault(pid, {"pid": pid, "spans": 0, "self_seconds": 0.0})
        row["spans"] += 1
        row["self_seconds"] += max(own, 0.0)

    span_rows = []
    for name, data in per_name.items():
        durs = data["dur"]
        span_rows.append(
            {
                "name": name,
                "count": len(durs),
                "cum_seconds": sum(durs),
                "self_seconds": sum(data["self"]),
                "p50_seconds": percentile(durs, 50),
                "p95_seconds": percentile(durs, 95),
            }
        )
    span_rows.sort(key=lambda row: row["cum_seconds"], reverse=True)

    unattributed_rows = [
        {
            "name": row["name"],
            "cum_seconds": row["cum_seconds"],
            "self_seconds": row["self_seconds"],
            "share": (
                row["self_seconds"] / row["cum_seconds"]
                if row["cum_seconds"] > 0
                else 0.0
            ),
        }
        for row in span_rows
        if row["name"] in parents
    ]

    hist_rows = []
    for name in sorted(hists):
        samples = hists[name]
        hist_rows.append(
            {
                "name": name,
                "count": len(samples),
                "p50": percentile(samples, 50),
                "p95": percentile(samples, 95),
                "max": max(samples),
            }
        )

    process_rows = sorted(
        per_pid.values(), key=lambda row: row["self_seconds"], reverse=True
    )

    return {
        "spans": span_rows,
        "unattributed": unattributed_rows,
        "counters": {name: counters[name] for name in sorted(counters)},
        "histograms": hist_rows,
        "processes": process_rows,
        "num_events": len(events),
    }


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}µs"


def render(report: Dict[str, Any], out=None) -> None:
    """Print the aligned human-readable breakdown."""
    if out is None:
        out = sys.stdout  # resolved at call time, so capture works
    spans = report["spans"]
    if spans:
        header = (
            f"{'span':<24} {'count':>7} {'cum':>10} {'self':>10} "
            f"{'p50':>10} {'p95':>10}"
        )
        print(header, file=out)
        print("-" * len(header), file=out)
        for row in spans:
            print(
                f"{row['name']:<24} {row['count']:>7} "
                f"{_fmt_seconds(row['cum_seconds']):>10} "
                f"{_fmt_seconds(row['self_seconds']):>10} "
                f"{_fmt_seconds(row['p50_seconds']):>10} "
                f"{_fmt_seconds(row['p95_seconds']):>10}",
                file=out,
            )
    else:
        print("no spans recorded", file=out)

    if report.get("unattributed"):
        print(file=out)
        header = f"{'unattributed in':<24} {'cum':>10} {'self':>10} {'share':>7}"
        print(header, file=out)
        print("-" * len(header), file=out)
        for row in report["unattributed"]:
            print(
                f"{row['name']:<24} "
                f"{_fmt_seconds(row['cum_seconds']):>10} "
                f"{_fmt_seconds(row['self_seconds']):>10} "
                f"{row['share']:>7.1%}",
                file=out,
            )

    processes = report.get("processes", [])
    # One single-process trace needs no attribution table; print it as
    # soon as a second pid shows up.
    if len(processes) > 1:
        print(file=out)
        header = f"{'process':<16} {'spans':>7} {'self':>10}"
        print(header, file=out)
        print("-" * len(header), file=out)
        for row in processes:
            print(
                f"{str(row['pid']):<16} {row['spans']:>7} "
                f"{_fmt_seconds(row['self_seconds']):>10}",
                file=out,
            )

    if report["counters"]:
        print(file=out)
        print(f"{'counter':<32} {'total':>12}", file=out)
        print("-" * 45, file=out)
        for name, total in report["counters"].items():
            value = int(total) if float(total).is_integer() else total
            print(f"{name:<32} {value:>12}", file=out)

    if report["histograms"]:
        print(file=out)
        header = f"{'histogram':<32} {'count':>7} {'p50':>9} {'p95':>9} {'max':>9}"
        print(header, file=out)
        print("-" * len(header), file=out)
        for row in report["histograms"]:
            print(
                f"{row['name']:<32} {row['count']:>7} "
                f"{row['p50']:>9g} {row['p95']:>9g} {row['max']:>9g}",
                file=out,
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Summarise a repro.obs JSONL trace (spans, counters, "
        "histograms)."
    )
    parser.add_argument("trace", help="path to the JSONL trace file")
    parser.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit the report as JSON instead of the aligned tables",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    report = build_report(load_events(args.trace))
    if args.as_json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        render(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
