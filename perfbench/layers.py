"""The layer run: direct calls into each layer's public functions.

Each layer is timed on its own, with tracing off, through the same calls
the facade and the server make:

* ``graphs`` — ``Instance.build`` (CSR construction);
* ``core.orientation`` — the three kernels on a fresh graph, then the core
  entry points (``run_stable_orientation`` / ``run_bounded_stable_orientation``
  on the compact backend); wrap = core entry - kernel;
* ``api`` — the unwrap ``repro.solve`` runs on a core entry's result
  (dict orientation back to flat ``heads``/``load``);
* ``core.orientation.incremental`` — ``from_solved_arrays``, in-process
  point queries, and an in-process replay of 8-delta ``apply_batch``
  chunks of the same seeded churn trace the server gets;
* ``serve.snapshot`` — ``save_state``, and a validated ``load_state`` in a
  fresh interpreter, as the CLI restores;
* ``cli`` — a fresh interpreter importing ``repro.cli`` and ``repro.serve``;
* ``serve.protocol`` — ``encode_frame`` plus decode of a query frame.

``run.py`` runs this module as its own process (``python3 layers.py
CONFIG_JSON``), so every layer is timed in a clean interpreter, not after
the stories' garbage; the child prints one JSON object of metrics and
check tallies.  :func:`trace_metrics` turns a traced story's JSONL files
into span metrics through ``scripts/report_trace.py --json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

import story
from speed import Speed

#: In-process point queries timed per block, and blocks (median taken).
QUERY_OPS = 20_000
QUERY_BLOCKS = 5

#: 8-delta chunks replayed in process through ``apply_batch``.
REPLAY_CHUNKS = 1_000

#: Fresh interpreters started to time the CLI import.
IMPORT_RUNS = 3

#: Frames encoded and decoded to time the codec.
CODEC_OPS = 20_000


def _core_entry(graph, algorithm: str, seed: int):
    if algorithm == "phases":
        from repro.core.orientation.phases import run_stable_orientation

        return run_stable_orientation(graph, seed=seed, backend="compact")
    from repro.core.orientation.bounded import run_bounded_stable_orientation

    return run_bounded_stable_orientation(graph, k=2, seed=seed, backend="compact")


def solve_layers(ctx, checks, out: Dict[str, float]) -> object:
    """Kernel, wrap and unwrap per algorithm; returns the repair ``Solved``.

    The unwrap is timed directly: the two helpers ``repro.solve`` runs on
    the core entry's result to turn its dict orientation back into flat
    ``heads``/``load`` arrays.  The wrap is the core entry's time minus
    the kernel's, each on its own fresh graph.  Every time is scaled to
    the reference speed (``speed.py``).
    """
    import repro
    from repro import api

    timed = ctx.speed.timed
    builds = []

    def fresh():
        instance, _, scaled = timed(lambda: story.build_instance(ctx))
        builds.append(scaled)
        return instance

    for algorithm in ("phases", "bounded"):
        ctx.speed.mark()
        graph = fresh().graph
        heads, _, kernel_s = timed(
            lambda: story.kernel_heads(graph, algorithm, ctx.seed)
        )
        graph = fresh().graph
        result, _, core_s = timed(lambda: _core_entry(graph, algorithm, ctx.seed))

        def unwrap():
            flat = api._heads_from_orientation(graph, result.orientation)
            api._load_from_heads(graph.num_nodes, flat)
            return flat

        unwrapped, _, out[f"api.{algorithm}_unwrap_s"] = timed(unwrap)
        out[f"orientation.{algorithm}_kernel_s"] = kernel_s
        out[f"orientation.{algorithm}_wrap_s"] = core_s - kernel_s
        checks.expect(
            unwrapped == heads, f"{algorithm} solve heads equal the kernel's"
        )
        del graph, result

    ctx.speed.mark()
    graph = fresh().graph
    heads, _, out["orientation.repair_kernel_s"] = timed(
        lambda: story.kernel_heads(graph, "repair", ctx.seed)
    )
    solved = repro.solve(fresh(), algorithm="repair", seed=ctx.seed)
    checks.expect(solved.heads == heads, "repair solve heads equal the kernel's")
    out["graphs.build_s"] = statistics.median(builds)
    return solved


def engine_layers(ctx, solved, checks, out: Dict[str, float]) -> None:
    """Incremental engine, snapshot and codec layers (times scaled)."""
    import random

    from repro.core.orientation.incremental import DynamicOrientation
    from repro.serve import save_state
    from repro.serve.protocol import decode_payload, encode_frame
    from repro.workloads.churn import churn_trace

    speed, timed = ctx.speed, ctx.speed.timed
    graph = solved.instance.graph
    speed.mark()
    engine, _, out["incremental.start_s"] = timed(
        lambda: DynamicOrientation.from_solved_arrays(
            graph, solved.heads, solved.load, seed=solved.seed
        )
    )
    path = ctx.work / "layer.snap"
    _, _, out["snapshot.save_s"] = timed(lambda: save_state(engine, str(path)))
    out["snapshot.bytes"] = path.stat().st_size
    restored = json.loads(_fresh_python(ctx, _LOAD_CHILD, str(path)))
    out["snapshot.load_s"] = restored["load_s"] * speed.factor()
    checks.expect(restored["num_edges"] == graph.num_edges, "layer snapshot restores")

    rng = random.Random(ctx.seed)
    ids, eu, ev = graph.node_ids, graph.edge_u, graph.edge_v
    keys = []
    for _ in range(story.QUERY_KEYS // 2):
        e = rng.randrange(graph.num_edges)
        keys.append((ids[eu[e]], ids[ev[e]], ids[rng.randrange(graph.num_nodes)]))
    head_of, load_of = engine.head_of, engine.load_of

    def query_block():
        for i in range(QUERY_OPS // 2):
            u, v, x = keys[i % len(keys)]
            head_of(u, v)
            load_of(x)

    speed.mark()
    per_op = [timed(query_block)[2] / QUERY_OPS for _ in range(QUERY_BLOCKS)]
    out["incremental.query_us"] = statistics.median(per_op) * 1e6

    trace = churn_trace(
        graph, num_updates=REPLAY_CHUNKS * story.CHUNK, seed=ctx.seed, mix="mixed"
    )
    batch_us = []
    frontier = flips = 0
    speed.mark()
    for lo in range(0, len(trace), story.CHUNK):
        chunk = trace[lo : lo + story.CHUNK]
        t0 = time.perf_counter()
        stats = engine.apply_batch(chunk)
        batch_us.append((time.perf_counter() - t0) * 1e6)
        frontier += stats.frontier_nodes
        flips += stats.repair.total_flips
    factor = speed.factor()
    batch_us = [x * factor for x in batch_us]
    checks.expect(engine.is_stable(), "in-process replay ends stable")
    out["incremental.apply_batch_p50_us"] = story.percentile(batch_us, 50)
    out["incremental.apply_batch_p99_us"] = story.percentile(batch_us, 99)
    out["incremental.frontier_nodes"] = frontier
    out["incremental.repair_flips"] = flips

    payload = {"op": "assignment-of", "u": keys[0][0], "v": keys[0][1]}

    def codec():
        for _ in range(CODEC_OPS):
            decode_payload(encode_frame(payload)[4:])

    speed.mark()
    out["protocol.codec_us"] = timed(codec)[2] / CODEC_OPS * 1e6


#: Child program timing ``load_state(path)`` after its imports.
_LOAD_CHILD = """
import json, sys, time
from repro.serve import load_state
t0 = time.perf_counter()
engine = load_state(sys.argv[1])
elapsed = time.perf_counter() - t0
print(json.dumps({"load_s": elapsed, "num_edges": engine.num_edges}))
"""


def _fresh_python(ctx, code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter with the program on its path."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ctx.root,
        env=os.environ.copy(),
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def import_layer(ctx, out: Dict[str, float]) -> None:
    """Wall time of a fresh interpreter importing the CLI and serve stack."""
    ctx.speed.mark()
    runs = [
        ctx.speed.timed(lambda: _fresh_python(ctx, "import repro.cli, repro.serve"))[2]
        for _ in range(IMPORT_RUNS)
    ]
    out["cli.import_s"] = statistics.median(runs)


def report(root: str, trace: Path) -> dict:
    """``scripts/report_trace.py --json`` over one JSONL trace file."""
    result = subprocess.run(
        [sys.executable, str(Path(root) / "scripts" / "report_trace.py"),
         str(trace), "--json"],
        cwd=root,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(result.stdout)


def _span(rep: dict, name: str, field: str) -> float:
    for row in rep["spans"]:
        if row["name"] == name:
            return row[field]
    return 0.0


def trace_metrics(root: str, trace_dir: Path, out: Dict[str, float]) -> dict:
    """Span metrics of a traced story; returns both rendered reports."""
    inproc = report(root, trace_dir / "inproc.jsonl")
    server = report(root, trace_dir / "server.jsonl")
    out["orientation.phase_self_s"] = _span(inproc, "orientation.phase", "self_seconds")
    out["orientation.repair_span_s"] = _span(inproc, "orientation.repair", "cum_seconds")
    out["serve.request_self_s"] = _span(server, "serve.request", "self_seconds")
    out["serve.requests"] = _span(server, "serve.request", "count")
    out["serve.coalesce_s"] = _span(server, "serve.coalesce", "cum_seconds")
    out["serve.restabilize_s"] = _span(server, "serve.restabilize", "cum_seconds")
    out["churn.apply_batch_s"] = _span(server, "churn.apply_batch", "cum_seconds")
    out["serve.snapshot_load_span_s"] = _span(
        server, "serve.snapshot.load", "cum_seconds"
    )
    return {"inproc": inproc, "server": server}


def main(argv=None) -> int:
    """Child entry: ``layers.py CONFIG_JSON``; prints metrics and checks."""
    config = json.loads((argv or sys.argv[1:])[0])
    sys.path.insert(0, str(Path(config["root"]) / "src"))
    ctx = story.Context(
        root=config["root"],
        work=Path(config["work"]),
        params=config["params"],
        seed=config["seed"],
        kernel_check=True,
        speed=Speed(),
    )
    checks = story.Checks()
    out: Dict[str, float] = {}
    solved = solve_layers(ctx, checks, out)
    engine_layers(ctx, solved, checks, out)
    del solved
    import_layer(ctx, out)
    print(json.dumps({
        "metrics": out,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
