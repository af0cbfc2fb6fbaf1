"""The end-to-end user story one benchmark run times.

Every run walks the whole path a user of the library takes, cold, at one
instance size.  It does so in rounds (:class:`Plan`); each round is

1. **Set-up** — build three fresh ``Instance`` objects from the workload
   seed (``setup_s`` is the median build over all rounds).
2. **Offline solve** — cold ``repro.solve`` with ``repair``, ``phases`` and
   ``bounded``, each on its own never-solved instance, each verified.
3. **Served restarts** — spawn ``python -m repro serve --from-snapshot``
   twice and time spawn -> first ``load-of`` reply.  The snapshot is the first
   round's repair result, wrapped with ``Solved.dynamic()`` and saved
   with ``save_state`` once (not timed end to end; the layer run times it).
4. **Reads** — closed-loop point queries on one connection, answers
   compared byte for byte with the solved state.
5. **Writes beside reads** — an open loop of 8-delta churn updates at a
   fixed offered rate on connection A while connection B keeps querying,
   then a closed loop of updates (saturation).

Every round's server restarts from the same snapshot and replays the same
stretch of the churn trace, so the rounds are alike; their samples are
pooled and each metric is a median over all of them.  Interleaving the
served stages with the solves spreads every metric's samples over the
whole run, so a host slowdown lasting seconds moves no median.  After the
last round's writes come the **checks** — ``stats`` counters, a
``snapshot`` op restored and re-verified, live counts against an
independent mirror of the trace, and served answers spot-checked against
the restored engine — and a solve compared with a direct kernel call.

The workload only decides how the run's ``--seconds`` are spent
(:func:`plan_for`); every stage runs on every workload, so every
end-to-end metric is measured everywhere.  Timings are scaled to a
reference machine speed (``speed.py``).
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import loadgen
from speed import Speed

ALGORITHMS = ("repair", "phases", "bounded")

#: Deltas per update request.
CHUNK = 8

#: Offered rate of the open loop, in update requests per second (8 deltas
#: each).  Fixed once, below the closed-loop saturation of a 2-core box.
OPEN_RATE = 600.0

#: Distinct point-query keys cycled by the read loops.
QUERY_KEYS = 4096

#: Closed-loop update requests generated ahead, per measured second;
#: above the ~3600/s the closed loop reaches on a 2-core box.
CLOSED_CAP_PER_S = 6000

#: Width of the windows the loop statistics are taken over: rates and
#: open-loop percentiles are medians of per-window values, so a host
#: stall that covers a minority of windows does not move them.
WINDOW_S = 0.5

#: Served answers compared with the restored engine after the run.
SPOT_CHECKS = 400

#: Stage lengths, in seconds per run, of the stages a workload does not
#: focus on.  Every end-to-end metric is gated on every workload, so even
#: these run for enough windows (``WINDOW_S``) that one stall moves no
#: median.
_MIN_STAGE = dict(read_s=2.5, closed_s=1.5, open_s=2.5)

#: Stage lengths of the layer run, which reports no gated metric.
_LAYER_STAGE = dict(read_s=1.0, closed_s=1.0, open_s=1.5)


@dataclass
class Plan:
    """How one run spends its time, stage by stage."""

    rounds: int  # solve rounds, each followed by served restarts and a block
    restarts: int  # served restarts per round; first_answer_s is their median
    read_s: float  # stage lengths per run, split evenly over the rounds
    closed_s: float
    open_s: float


def plan_for(workload: str, seconds: float, *, layer_run: bool = False) -> Plan:
    """The stage sizes of ``workload`` for a run of ``seconds``.

    ``serve-read-100k`` spends ``seconds`` on the read loop,
    ``serve-churn-100k`` on the two write phases; every other stage runs
    at its minimum size.  Every workload runs two rounds, so no median
    rests on a single solve or restart.  The layer run (``--trace 1``)
    runs the story twice, so it keeps every stage short, in one round
    with one restart.
    """
    if layer_run:
        return Plan(rounds=1, restarts=1, **_LAYER_STAGE)
    # One restart varies by ~15% within a run, so each round restarts twice.
    plan = Plan(rounds=2, restarts=2, **_MIN_STAGE)
    if workload.startswith("serve-read-"):
        plan.read_s = max(plan.read_s, seconds)
    elif workload.startswith("serve-churn-"):
        plan.closed_s = max(plan.closed_s, seconds / 2)
        plan.open_s = max(plan.open_s, seconds / 2)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Checks:
    """Tally of checked operations: attempted, failed, first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 20:
            self.messages.append(f"{what}: {failed} of {attempted} failed")

    def expect(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)


@dataclass
class Context:
    """What every stage needs: where to work and what to build."""

    root: str
    work: Path
    params: dict
    seed: int
    kernel_check: bool
    speed: Speed


def build_instance(ctx: Context):
    import repro

    return repro.Instance.build("scale-layered", **ctx.params)


def _solve_checked(ctx: "Context", instance, algorithm: str, checks: Checks):
    """One cold ``repro.solve``, verified; returns (solved, raw_s, scaled_s)."""
    import repro
    from repro import obs

    ctx.speed.mark()
    # What earlier stages left on the heap (other instances, results, the
    # served stages' inputs) is frozen, so the solve's collections walk
    # only its own objects, as in a fresh process.  Left in, it made the
    # second round's phases solves ~25% slower than the first's.
    gc.freeze()
    try:
        with obs.span("bench.solve", algorithm=algorithm):
            solved, raw, scaled = ctx.speed.timed(
                lambda: repro.solve(instance, algorithm=algorithm, seed=ctx.seed)
            )
    finally:
        gc.unfreeze()
    if algorithm == "bounded":
        checks.expect(solved.result.stable, "bounded solve is k-relaxed stable")
    else:
        checks.expect(solved.is_stable(), f"{algorithm} solve is stable")
    return solved, raw, scaled


def kernel_heads(graph, algorithm: str, seed: int) -> List[int]:
    """Heads of a direct kernel call with ``repro.solve``'s defaults."""
    from repro.core.orientation import _kernels

    if algorithm == "repair":
        return list(_kernels.repair_kernel(graph, seed=seed)[0])
    if algorithm == "phases":
        return list(_kernels.stable_orientation_kernel(graph, seed=seed)[0])
    return list(_kernels.bounded_orientation_kernel(graph, k=2, seed=seed)[0])


def solve_round(ctx: Context, checks: Checks, out: dict) -> dict:
    """Fresh builds and one cold solve per algorithm; returns the ``Solved``
    objects.  Samples are appended to ``out``'s ``*_samples_s`` lists."""
    instances = []
    ctx.speed.mark()
    for _ in ALGORITHMS:
        instance, raw, scaled = ctx.speed.timed(lambda: build_instance(ctx))
        instances.append(instance)
        out.setdefault("build_samples_s", []).append(scaled)
        out.setdefault("raw.build_samples_s", []).append(raw)
    solved = {}
    for algorithm, instance in zip(ALGORITHMS, instances):
        solved[algorithm], raw, scaled = _solve_checked(
            ctx, instance, algorithm, checks
        )
        out.setdefault(f"solve_{algorithm}_samples_s", []).append(scaled)
        out.setdefault(f"raw.solve_{algorithm}_samples_s", []).append(raw)
    return solved


def finish_solves(ctx: Context, solved: dict, checks: Checks, out: dict) -> None:
    """Medians of the solve samples, the kernel check and the exact counts."""
    out["setup_s"] = statistics.median(out["build_samples_s"])
    for algorithm in ALGORITHMS:
        out[f"solve_{algorithm}_s"] = statistics.median(
            out[f"solve_{algorithm}_samples_s"]
        )
    out["backend"] = {a: solved[a].backend for a in ALGORITHMS}

    if ctx.kernel_check:
        # One algorithm per run, rotating with the seed (a direct kernel
        # call costs as much as the solve); the layer run checks all three.
        algorithm = ALGORITHMS[ctx.seed % len(ALGORITHMS)]
        s = solved[algorithm]
        same = kernel_heads(s.instance.graph, algorithm, ctx.seed) == s.heads
        checks.expect(same, f"{algorithm} solve heads equal the kernel's")

    phases = solved["phases"].result
    repair = solved["repair"].result
    out["counts"] = {
        "orientation.phases": phases.phases,
        "orientation.communication_rounds": phases.communication_rounds,
        "token_dropping.game_rounds": phases.game_rounds,
        "orientation.repair_iterations": repair.iterations,
        "orientation.repair_flips": repair.total_flips,
        "orientation.max_load": solved["phases"].max_load(),
    }


class ServeInputs:
    """Seeded frames for the served stages, with their expected replies."""

    def __init__(self, solved, seed: int, update_requests: int) -> None:
        from repro.core.orientation.incremental import EdgeDelete, NodeLeave
        from repro.serve.protocol import delta_to_wire, encode_frame
        from repro.workloads.churn import churn_trace

        graph = solved.instance.graph
        ids, eu, ev = graph.node_ids, graph.edge_u, graph.edge_v
        heads, load = solved.heads, solved.load
        rng = random.Random(seed * 1_000_003 + 17)
        self.read_frames: List[bytes] = []
        self.read_expected: List[bytes] = []
        for _ in range(QUERY_KEYS // 2):
            e = rng.randrange(graph.num_edges)
            u, v = ids[eu[e]], ids[ev[e]]
            self.read_frames.append(
                encode_frame({"op": "assignment-of", "u": u, "v": v})
            )
            self.read_expected.append(
                encode_frame({"ok": True, "head": ids[heads[e]]})
            )
            i = rng.randrange(graph.num_nodes)
            self.read_frames.append(encode_frame({"op": "load-of", "node": ids[i]}))
            self.read_expected.append(encode_frame({"ok": True, "load": load[i]}))

        self.trace = churn_trace(
            graph, num_updates=update_requests * CHUNK, seed=seed, mix="mixed"
        )
        self.update_frames = [
            encode_frame(
                {
                    "op": "update",
                    "deltas": [
                        delta_to_wire(d) for d in self.trace[lo : lo + CHUNK]
                    ],
                }
            )
            for lo in range(0, len(self.trace), CHUNK)
        ]

        # Keys the trace never removes: nodes that never leave, and edges
        # between them that are never deleted.  Queries on them succeed
        # at every point of the churn.
        left = {d.node for d in self.trace if isinstance(d, NodeLeave)}
        deleted = {(d.u, d.v) for d in self.trace if isinstance(d, EdgeDelete)}
        nodes = [x for x in ids if x not in left]
        edges = [
            (ids[eu[e]], ids[ev[e]])
            for e in range(graph.num_edges)
            if ids[eu[e]] not in left and ids[ev[e]] not in left
        ]
        edges = [key for key in edges if key not in deleted]
        if not nodes or not edges:
            raise RuntimeError("the churn trace leaves no key to query beside it")
        self.safe_edges = [rng.choice(edges) for _ in range(QUERY_KEYS // 2)]
        self.safe_nodes = [rng.choice(nodes) for _ in range(QUERY_KEYS // 2)]
        self.safe_frames = []
        for (u, v), x in zip(self.safe_edges, self.safe_nodes):
            self.safe_frames.append(
                encode_frame({"op": "assignment-of", "u": u, "v": v})
            )
            self.safe_frames.append(encode_frame({"op": "load-of", "node": x}))


def _windows(due, values, width: float) -> List[List[float]]:
    """``values`` grouped into consecutive windows of ``width`` seconds of
    their ``due`` times; a last window shorter than half a width joins
    the one before it."""
    start = due[0]
    groups: Dict[int, List[float]] = {}
    for t, value in zip(due, values):
        groups.setdefault(int((t - start) / width), []).append(value)
    windows = [groups[k] for k in sorted(groups)]
    if len(windows) > 1 and due[-1] - start < (len(windows) - 0.5) * width:
        windows[-2].extend(windows.pop())
    return windows


def _decode(reply: bytes):
    return json.loads(reply[4:])


def _check_safe_replies(replies, inputs: ServeInputs, checks: Checks, what: str):
    bad = 0
    for i, reply in enumerate(replies):
        payload = _decode(reply)
        if not payload.get("ok"):
            bad += 1
        elif i % 2 == 0:
            u, v = inputs.safe_edges[(i // 2) % len(inputs.safe_edges)]
            bad += payload["head"] not in (u, v)
        else:
            bad += not (isinstance(payload["load"], int) and payload["load"] >= 0)
    checks.count(len(replies), bad, what)


def _check_receipts(replies, checks: Checks, what: str) -> None:
    bad = 0
    for reply in replies:
        payload = _decode(reply)
        bad += not (payload.get("ok") and payload.get("applied") == CHUNK)
    checks.count(len(replies), bad, what)


class Served:
    """The served stages: restarts and a block of load per round.

    ``repair`` is the first round's repair ``Solved``: its state is what
    every server restores, and what the read answers are checked against.
    Every block starts from that snapshot and replays the same stretch of
    the churn trace; :meth:`finish` pools the blocks' samples.
    """

    def __init__(
        self,
        ctx: Context,
        plan: Plan,
        repair,
        checks: Checks,
        *,
        server_trace: Optional[str] = None,
    ) -> None:
        from repro.serve import save_state
        from repro.serve.protocol import encode_frame

        self.ctx, self.checks = ctx, checks
        self.restarts = plan.restarts
        self.read_s = plan.read_s / plan.rounds
        self.closed_s = plan.closed_s / plan.rounds
        # The trace is bounded by the instance too (a few deltas per
        # node), so a small instance is never churned away entirely.
        nodes = repair.instance.num_nodes
        self.closed_cap = min(int(CLOSED_CAP_PER_S * self.closed_s) + 1, nodes // 4)
        open_s = plan.open_s / plan.rounds
        self.open_n = max(1, min(int(OPEN_RATE * open_s), nodes // 8))
        self.inputs = ServeInputs(repair, ctx.seed, self.closed_cap + self.open_n)
        self.graph = repair.instance.graph

        self.snapshot = str(ctx.work / "state.snap")
        save_state(repair.dynamic(), self.snapshot)
        self.env = loadgen.clean_env(ctx.root, server_trace)
        self.speed = Speed(cpus=loadgen.BENCH_CPUS | loadgen.SERVER_CPUS)
        self.shutdown = encode_frame({"op": "shutdown"})
        self.s: Dict[str, list] = {
            key: []
            for key in (
                "listen", "rtt", "first", "read_lat", "read_rates",
                "open_p50", "open_p95", "open_lat", "open_lag", "closed_lat",
                "closed_rates",
            )
        }
        self.sent = self.ok = 0

    def block(self, *, last: bool, out: dict) -> None:
        """Restart the server and run reads, open-loop and closed-loop
        writes; after the ``last`` block also the final checks."""
        # The generator's own collector stays out of the timed loops: its
        # pauses would be charged to the server.
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            with loadgen.keep_awake():
                for _ in range(self.restarts - 1):
                    self._restart().stop(self.shutdown)
                server = self._restart()
                try:
                    self._load(server, last=last, out=out)
                except BaseException:
                    server.stop()
                    raise
                server.stop(self.shutdown)
        finally:
            gc.enable()
            gc.unfreeze()

    def _restart(self):
        """A server started from the snapshot, its restart times recorded."""
        s, inputs, speed = self.s, self.inputs, self.speed
        speed.mark()
        server = loadgen.ServerProcess(
            self.ctx.root, self.snapshot, self.env, inputs.read_frames[1]
        )
        factor = speed.factor()
        self.checks.expect(
            server.first_reply == inputs.read_expected[1], "first answer"
        )
        s["listen"].append(server.listen_s * factor)
        s["rtt"].append(server.first_rtt_s * factor)
        s["first"].append(server.first_answer_s * factor)
        return server

    def _load(self, server, *, last: bool, out: dict) -> None:
        """The timed stages against a started server."""
        s, checks, inputs, speed = self.s, self.checks, self.inputs, self.speed

        # Reads alone: every answer is known from the solved arrays.
        lat, replies, rates = loadgen.closed_loop(
            server.conn, inputs.read_frames, self.read_s, speed, cycle=True
        )
        expected = inputs.read_expected
        bad = sum(
            reply != expected[i % len(expected)]
            for i, reply in enumerate(replies)
        )
        checks.count(len(replies), bad, "read answers equal the solved state")
        s["read_lat"].extend(lat)
        s["read_rates"].extend(rates)

        # Writes beside reads, open loop at the fixed offered rate.  It
        # runs first, from the restored state, so its window covers the
        # same stretch of the trace whatever the box's speed.
        frames = inputs.update_frames[: self.open_n]
        speed.mark()
        due, latency, lag, replies, qreplies = loadgen.open_loop(
            server.address, frames, OPEN_RATE, inputs.safe_frames
        )
        factor = speed.factor()
        latency = [x * factor for x in latency]
        for window in _windows(due, latency, WINDOW_S):
            s["open_p50"].append(percentile(window, 50))
            s["open_p95"].append(percentile(window, 95))
        s["open_lat"].extend(latency)
        s["open_lag"].extend(lag)
        _check_receipts(replies, checks, "open-loop update receipts")
        _check_safe_replies(qreplies, inputs, checks, "reads beside writes")
        self.sent += len(frames) + len(qreplies)
        self.ok += sum(
            1 for reply in replies + qreplies if _decode(reply).get("ok")
        )

        # Writes, closed loop: saturation on one connection.
        lat, replies, rates = loadgen.closed_loop(
            server.conn,
            inputs.update_frames[self.open_n : self.open_n + self.closed_cap],
            self.closed_s,
            speed,
            cycle=False,
        )
        _check_receipts(replies, checks, "closed-loop update receipts")
        s["closed_lat"].extend(lat)
        s["closed_rates"].extend(rates)
        if last:
            self._final_checks(server, len(replies), out)

    def _final_checks(self, server, consumed: int, out: dict) -> None:
        """Counters, then the final state: snapshot over the wire, restore,
        verify against the mirror of the trace and the served answers."""
        from repro.serve import load_state
        from repro.serve.protocol import encode_frame

        checks = self.checks
        stats = _decode(server.conn.call(encode_frame({"op": "stats"})))
        out["serve.batches"] = stats["counters"]["batches"]
        out["serve.errors"] = stats["counters"]["errors"]
        out["serve.coalescing_ratio"] = stats["coalescing_ratio"]
        out["closed_updates"] = consumed

        final = str(self.ctx.work / "final.snap")
        receipt = _decode(
            server.conn.call(encode_frame({"op": "snapshot", "path": final}))
        )
        checks.expect(bool(receipt.get("ok")), "snapshot op")
        # A validated restore re-checks stability over every edge.
        try:
            restored = load_state(final, validate=True)
        except ValueError as exc:
            checks.expect(False, f"restored state is stable: {exc}")
        else:
            applied = self.inputs.trace[: (self.open_n + consumed) * CHUNK]
            mirror = loadgen.live_counts(self.graph, applied)
            live = (restored.num_nodes, restored.num_edges)
            checks.expect(live == mirror, f"live counts {live} equal mirror {mirror}")
            checks.expect(
                (stats["num_nodes"], stats["num_edges"]) == mirror,
                "served counts equal the mirror",
            )
            _spot_check(server.conn, restored, self.inputs, checks)
            del restored
        out["peak_rss_mb"] = server.peak_rss_mb()

    def finish(self, out: dict) -> None:
        """Pool every block's samples into the served metrics."""
        s = self.s
        out["first_answer_s"] = statistics.median(s["first"])
        out["first_answer_samples_s"] = s["first"]
        out["listen_s"] = statistics.median(s["listen"])
        out["first_rtt_s"] = statistics.median(s["rtt"])
        out["query_p50_us"] = percentile(s["read_lat"], 50) / 1e3
        out["query_p99_us"] = percentile(s["read_lat"], 99) / 1e3
        out["queries_per_s"] = statistics.median(s["read_rates"])
        out["queries"] = len(s["read_lat"])
        out["update_p50_ms"] = statistics.median(s["open_p50"]) * 1e3
        out["update_p95_ms"] = statistics.median(s["open_p95"]) * 1e3
        out["loadgen.update_p99_ms"] = percentile(s["open_lat"], 99) * 1e3
        out["loadgen.lag_p99_ms"] = percentile(s["open_lag"], 99) * 1e3
        out["loadgen.sent"] = self.sent
        out["loadgen.ok"] = self.ok
        out["updates_per_s"] = statistics.median(s["closed_rates"]) * CHUNK
        out["closed_update_p50_ms"] = percentile(s["closed_lat"], 50) / 1e6
        out["speed_factors"] = self.speed.factors
        out["bench_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )


def _spot_check(conn, restored, inputs: ServeInputs, checks: Checks) -> None:
    from repro.serve.protocol import encode_frame

    rng = random.Random(len(inputs.trace))
    bad = attempted = 0
    for _ in range(SPOT_CHECKS // 2):
        u, v = inputs.safe_edges[rng.randrange(len(inputs.safe_edges))]
        x = inputs.safe_nodes[rng.randrange(len(inputs.safe_nodes))]
        head = _decode(conn.call(encode_frame({"op": "assignment-of", "u": u, "v": v})))
        load = _decode(conn.call(encode_frame({"op": "load-of", "node": x})))
        attempted += 2
        bad += head.get("head") != restored.head_of(u, v)
        bad += load.get("load") != restored.load_of(x)
    checks.count(attempted, bad, "served answers equal the restored engine")


def run_story(
    ctx: Context,
    plan: Plan,
    checks: Checks,
    *,
    trace_dir: Optional[Path] = None,
) -> dict:
    """Run the whole story once; returns every measurement it took.

    With ``trace_dir`` the solve rounds run under ``obs.capture()`` (their
    events are appended to ``inproc.jsonl``) and the server children
    record to ``server.jsonl`` through ``REPRO_TRACE``.
    """
    from repro import obs

    out: dict = {}
    served: Optional[Served] = None
    server_trace = None if trace_dir is None else str(trace_dir / "server.jsonl")
    for round_ in range(plan.rounds):
        if trace_dir is None:
            solved = solve_round(ctx, checks, out)
        else:
            with obs.capture() as sink:
                solved = solve_round(ctx, checks, out)
            with open(trace_dir / "inproc.jsonl", "a", encoding="utf-8") as fh:
                for event in sink.events:
                    fh.write(json.dumps(event) + "\n")
        if served is None:
            served = Served(
                ctx, plan, solved["repair"], checks, server_trace=server_trace
            )
        last = round_ == plan.rounds - 1
        if not last:
            del solved  # the next round's builds start from a clean heap
        served.block(last=last, out=out)
    finish_solves(ctx, solved, checks, out)
    served.finish(out)
    return out
