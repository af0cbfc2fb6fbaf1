#!/usr/bin/env python3
"""End-to-end, layer-split benchmark of the token-dropping orientation stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-read-100k --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload serve-churn-100k --seed 1 --seconds 8 --trace 1
    python3 perfbench/table.py          # per-workload table of every recorded run

Every run, whatever the workload, walks the whole user story at the
``SCALE_TIER_PARAMS["100k"]`` size (10^5 nodes, ~196k edges) with the
graph seeded by ``--seed``: cold ``repro.solve`` with the three algorithms,
a snapshot, a served restart of ``python -m repro serve --from-snapshot``,
closed-loop reads, and churn writes beside reads (see ``story.py``).  The
workload picks the stage its ``--seconds`` go to:

* ``serve-read-100k`` — the closed-loop point-query loop (a restarted
  read-only service);
* ``serve-churn-100k`` — the open-loop and closed-loop update phases.

Timings are scaled to a reference machine speed with a calibration loop
run around each timed piece of work (``speed.py``); raw seconds are kept
in the raw rows.
``--trace 0`` measures with tracing off and reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` is the layer run: the story
untraced, the story traced (``obs.capture()`` in process, ``REPRO_TRACE``
for the server), then direct calls into each layer (``layers.py``); it
reports the per-layer metrics, the ``*.unattributed_s`` residuals and the
tracing overhead (traced / untraced - 1) of every end-to-end metric.

Every output is checked (``Checks``); a failed check is counted in
``failed`` and sets ``correct`` to false.  The last stdout line is the
JSON result; every run also appends a raw row with its provenance to
``.perfbench/rows.jsonl``, which ``table.py`` renders.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
ROWS = OUT_DIR / "rows.jsonl"

#: Instance sizes: the benchmark tier and a tiny one for the smoke test.
TIERS = {
    "100k": None,  # SCALE_TIER_PARAMS["100k"], read after import
    "tiny": dict(num_levels=8, width=60, edge_probability=0.05),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tier", choices=sorted(TIERS), default="100k")
    return parser.parse_args(argv)


def git_sha() -> str:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return result.stdout.strip()


def layer_metrics(ctx, plan, checks, untraced) -> tuple:
    """The ``--trace 1`` run after the untraced story: traced story + layers."""
    import layers
    import loadgen
    import story

    trace_dir = ctx.work / "trace"
    trace_dir.mkdir()
    traced = story.run_story(
        ctx,
        plan,
        checks,
        trace_dir=trace_dir,
    )
    out: dict = dict(untraced["counts"])
    reports = layers.trace_metrics(str(ROOT), trace_dir, out)

    config = {"root": str(ROOT), "work": str(ctx.work), "params": ctx.params,
              "seed": ctx.seed}
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "layers.py"), json.dumps(config)],
        cwd=ROOT,
        env=loadgen.clean_env(str(ROOT), None),
        check=True,
        capture_output=True,
        text=True,
    )
    result = json.loads(child.stdout.strip().splitlines()[-1])
    out.update(result["metrics"])
    checks.count(result["attempted"], result["failed"], "layer run")
    checks.messages.extend(result["messages"])

    for key in ("serve.batches", "serve.errors", "serve.coalescing_ratio",
                "loadgen.lag_p99_ms", "loadgen.update_p99_ms", "loadgen.sent",
                "loadgen.ok"):
        out[key] = untraced[key]
    out["serve.first_rtt_us"] = untraced["first_rtt_s"] * 1e6
    # Tails: host stalls move them too far run to run to gate on.
    out["serve.query_p99_us"] = untraced["query_p99_us"]
    out["loadgen.update_p95_ms"] = untraced["update_p95_ms"]
    # Server start-up outside the interpreter+import and the restore.
    out["serve.bind_s"] = (
        untraced["listen_s"] - out["cli.import_s"] - out["snapshot.load_s"]
    )

    # Residuals: each end-to-end value minus the sum of its layers.
    out["solve_repair.unattributed_s"] = (
        untraced["solve_repair_s"] - out["orientation.repair_kernel_s"]
    )
    for algorithm in ("phases", "bounded"):
        out[f"solve_{algorithm}.unattributed_s"] = untraced[
            f"solve_{algorithm}_s"
        ] - (
            out[f"orientation.{algorithm}_kernel_s"]
            + out[f"orientation.{algorithm}_wrap_s"]
            + out[f"api.{algorithm}_unwrap_s"]
        )
    out["first_answer.unattributed_s"] = untraced["first_answer_s"] - (
        out["cli.import_s"]
        + out["snapshot.load_s"]
        + out["serve.bind_s"]
        + untraced["first_rtt_s"]
    )
    return out, traced, reports


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import loadgen
    from speed import REFERENCE_PROBE_S, Speed

    stripped = sorted(name for name in loadgen.STRIPPED_ENV if name in os.environ)
    for name in loadgen.STRIPPED_ENV:
        os.environ.pop(name, None)
    loadgen.pin_benchmark()
    sys.path.insert(0, str(ROOT / "src"))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {workloads}", file=sys.stderr)
        return 2

    import story
    from repro.dispatch import resolve_backend
    from repro.workloads.scenarios import SCALE_TIER_PARAMS

    params = dict(TIERS[args.tier] or SCALE_TIER_PARAMS[args.tier], seed=args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"run-{os.getpid()}"
    work.mkdir()
    checks = story.Checks()
    ctx = story.Context(
        root=str(ROOT),
        work=work,
        params=params,
        seed=args.seed,
        kernel_check=not args.trace,
        speed=Speed(),
    )
    plan = story.plan_for(args.workload, args.seconds, layer_run=bool(args.trace))
    started = time.perf_counter()
    try:
        untraced = story.run_story(
            ctx,
            plan,
            checks,
        )
        row = {"e2e": untraced}
        if args.trace:
            layers_out, traced, reports = layer_metrics(
                ctx, plan, checks, untraced
            )
            for spec in bench["end_to_end"]:
                name = spec["name"]
                layers_out[f"trace_overhead.{name}"] = traced[name] / untraced[name] - 1
            row.update(layers=layers_out, traced=traced, trace_reports=reports)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    source = row["layers"] if args.trace else untraced
    missing = [spec["name"] for spec in bench[kind] if spec["name"] not in source]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {
        spec["name"]: {"value": source[spec["name"]], "unit": spec["unit"]}
        for spec in bench[kind]
    }
    row.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        wall_s=time.perf_counter() - started,
        metrics=metrics,
        attempted=checks.attempted,
        failed=checks.failed,
        check_failures=checks.messages,
        provenance={
            "seed": args.seed,
            "tier": args.tier,
            "tier_params": params,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_sha": git_sha(),
            "backend": resolve_backend(None),
            "solve_backends": untraced["backend"],
            "stripped_env": stripped,
            "open_rate_per_s": story.OPEN_RATE,
            "reference_probe_s": REFERENCE_PROBE_S,
            "chunk_deltas": story.CHUNK,
            "plan": vars(plan),
        },
    )
    with open(ROWS, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, default=str) + "\n")

    import table

    table.render([row], bench, out=sys.stdout)
    for message in checks.messages:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
