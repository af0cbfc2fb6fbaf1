#!/usr/bin/env python3
"""Render recorded benchmark rows into one table per workload.

``run.py`` appends one raw JSON row per run to ``.perfbench/rows.jsonl``;
this script groups them by workload, tier and kind (end-to-end runs with
``--trace 0``, layer runs with ``--trace 1``) and prints, per metric, the
run count, median, quartiles and their spread (IQR / median)::

    python3 perfbench/table.py [--workload NAME] [--rows PATH]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _fmt(value) -> str:
    return f"{value:.6g}"


def render(rows, bench, out=sys.stdout) -> None:
    """Print one table per (workload, tier, kind) over ``rows``."""
    groups: dict = {}
    for row in rows:
        kind = "per_layer" if row["trace"] else "end_to_end"
        key = (row["workload"], row["provenance"]["tier"], kind)
        metrics = groups.setdefault(key, {})
        for name, metric in row["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    units = {spec["name"]: spec["unit"] for k in ("end_to_end", "per_layer")
             for spec in bench[k]}
    for (workload, tier, kind), metrics in sorted(groups.items()):
        runs = max(len(v) for v in metrics.values())
        print(f"\n== {workload} [{tier}] ({kind}, {runs} run{'s' * (runs != 1)}) ==",
              file=out)
        header = (f"{'metric':<36} {'unit':>6} {'median':>12} {'q1':>12} "
                  f"{'q3':>12} {'spread':>7}")
        print(header, file=out)
        print("-" * len(header), file=out)
        for name, values in metrics.items():
            median = statistics.median(values)
            q1, q3 = _quartiles(values)
            spread = (q3 - q1) / abs(median) if median else float("nan")
            print(f"{name:<36} {units.get(name, '?'):>6} {_fmt(median):>12} "
                  f"{_fmt(q1):>12} {_fmt(q3):>12} {spread:>7.3f}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", default=str(ROOT / ".perfbench" / "rows.jsonl"))
    parser.add_argument("--workload", default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with open(args.rows, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if args.workload:
        rows = [row for row in rows if row["workload"] == args.workload]
    render(rows, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
