#!/usr/bin/env python3
"""Perf-regression gates over every committed ``BENCH_*.json`` suite.

For each gated suite the script re-times one representative committed
scenario and fails when the fresh median exceeds the committed median by
more than ``--max-factor`` (3x by default — generous enough to absorb
machine differences, tight enough to catch an accidental fall-back to a
reference path or a kernel pessimisation).  Sub-``--min-budget`` medians
are compared against the budget floor instead: a scenario committed at a
couple of milliseconds would otherwise flake on any slower runner.

Because committed medians were measured on a different machine, the
absolute budget alone cannot distinguish "slow CI runner" from "kernel
fell back to the reference path".  Suites with a compact kernel
(``token_dropping``, ``orientation``, ``compact_core``, ``churn``)
therefore also time the kernel's ``*_reference`` dict oracle (for churn,
``ScratchDynamicOrientation``) *on the same machine in the same process*
and require the gated path to stay at least ``--min-ratio`` times faster
(3x by default).  A silent fallback drives that ratio to ~1 and fails
regardless of runner speed.  Suites without a compact kernel
(``assignment``, ``semi_matching``, ``lower_bounds``) get the budget
check only.

Before timing anything, each kernel gate cross-checks the kernel against
its reference oracle on its instance and fails on any disagreement, so
CI keeps a standing kernel-vs-reference agreement check even when every
timing is fine.

Suites whose committed rows carry a ``peak_mb`` column (the tracemalloc
peak the benchmark conftest records) can opt into a memory gate
(``gate_peak_mb=True``): one extra run is re-measured under tracemalloc
and must stay within ``--max-mem-factor`` of the committed peak (with an
absolute ``--min-mem-budget`` floor so small scenarios cannot flake on
allocator noise).  Python-heap peaks are machine-stable, so the memory
budget is much tighter in practice than the timing one.

The ``serve`` gate drives a real :mod:`repro.serve` server over loopback
TCP on the fixed edge-flap scenario and compares the coalesced update
path (one request per 256-delta batch) against naive serving (one round
trip and one re-stabilization per delta) *on the same machine*,
requiring a ≥10x ratio — a coalescing layer that stops amortizing
per-request overhead fails regardless of runner speed.  Its agreement
check asserts a served session equals a local engine applying the
identical chunks.

Usage (CI runs exactly this):

    PYTHONPATH=src python scripts/check_bench_regression.py --max-factor 3

Run a single suite with ``--suite orientation`` (repeatable).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class SuiteGate:
    """One committed-median gate: how to rebuild and re-time a scenario."""

    #: Scenario key inside the suite's ``BENCH_<suite>.json``.
    scenario: str
    #: Build the (warmed-up) instances the runners share.
    prepare: Callable[[], dict]
    #: The gated path — exactly what the committed median measures.
    run: Callable[[dict], object]
    #: Same-machine reference for the ratio floor; None when the suite has
    #: no compact fast path (budget check only).
    reference: Optional[Callable[[dict], object]] = None
    #: Correctness check run before any timing; returns an error message
    #: or None.  Usually compact-vs-reference agreement; budget-only
    #: gates may use it for structural invariants instead.
    check_agreement: Optional[Callable[[dict], Optional[str]]] = None
    #: Per-gate override of the ``--min-ratio`` floor.  The churn gate
    #: uses this: its whole contract is that incremental re-stabilization
    #: beats per-update recompute by a wide margin, so it demands 10x
    #: where ordinary kernel gates accept the CLI default.
    min_ratio: Optional[float] = None
    #: What the ratio's denominator path is called in output ("dict" for
    #: the reference-path gates, "naive" for the serve gate).
    reference_label: str = "dict"
    #: Re-measure one run under tracemalloc and gate it against the
    #: committed ``extra_info.peak_mb`` (times ``--max-mem-factor``,
    #: floored at ``--min-mem-budget``).
    gate_peak_mb: bool = False


# ----------------------------------------------------------------------
# Gate definitions, one per committed BENCH_*.json
# ----------------------------------------------------------------------
def _token_dropping_gate() -> SuiteGate:
    from repro.core.token_dropping import (
        run_proposal_algorithm,
        run_proposal_algorithm_reference,
    )
    from repro.workloads import token_dropping_smoke

    def prepare() -> dict:
        instance = token_dropping_smoke()
        # Warm the instance's network and its memoized dense game, like
        # the benchmark does before timing.
        run_proposal_algorithm(instance)
        return {"instance": instance}

    def check_agreement(ctx: dict) -> Optional[str]:
        fast = run_proposal_algorithm(ctx["instance"])
        reference = run_proposal_algorithm_reference(ctx["instance"])
        if fast != reference:
            return (
                "compact and reference token-dropping executions disagree "
                "on the smoke instance"
            )
        fast.validate(ctx["instance"]).raise_if_invalid()
        return None

    return SuiteGate(
        scenario="test_proposal_smoke_scale",
        prepare=prepare,
        run=lambda ctx: run_proposal_algorithm(ctx["instance"]),
        reference=lambda ctx: run_proposal_algorithm_reference(ctx["instance"]),
        check_agreement=check_agreement,
    )


def _orientation_gate() -> SuiteGate:
    from repro.core.orientation import (
        run_stable_orientation,
        run_stable_orientation_reference,
    )
    from repro.workloads import orientation_smoke

    def prepare() -> dict:
        compact = orientation_smoke(compact=True)
        reference = orientation_smoke()
        run_stable_orientation(compact)
        return {"compact": compact, "reference": reference}

    def check_agreement(ctx: dict) -> Optional[str]:
        fast = run_stable_orientation(ctx["compact"])
        ref = run_stable_orientation_reference(ctx["reference"])
        if (
            ref.orientation.oriented_edges() != fast.orientation.oriented_edges()
            or ref.per_phase != fast.per_phase
            or (ref.phases, ref.game_rounds, ref.communication_rounds)
            != (fast.phases, fast.game_rounds, fast.communication_rounds)
        ):
            return (
                "compact and reference stable-orientation runs disagree on "
                "the smoke instance"
            )
        return None

    return SuiteGate(
        scenario="test_stable_orientation_smoke_scale",
        prepare=prepare,
        run=lambda ctx: run_stable_orientation(ctx["compact"]),
        reference=lambda ctx: run_stable_orientation_reference(ctx["reference"]),
        check_agreement=check_agreement,
    )


def _compact_core_gate() -> SuiteGate:
    from repro.core.orientation import (
        sequential_flip_algorithm,
        sequential_flip_algorithm_reference,
    )
    from repro.workloads import layered_dag_orientation

    # The bench_compact_core.py full-scale sequential-flips instance.
    params = dict(num_levels=100, width=100, edge_probability=0.003, seed=0)

    def prepare() -> dict:
        compact = layered_dag_orientation(**params, compact=True)
        reference = layered_dag_orientation(**params)
        sequential_flip_algorithm(compact)
        return {"compact": compact, "reference": reference}

    def check_agreement(ctx: dict) -> Optional[str]:
        fast, fast_stats = sequential_flip_algorithm(ctx["compact"])
        ref, ref_stats = sequential_flip_algorithm_reference(ctx["reference"])
        if ref.oriented_edges() != fast.oriented_edges() or ref_stats != fast_stats:
            return (
                "compact and reference sequential-flip runs disagree on the "
                "layered-DAG instance"
            )
        return None

    return SuiteGate(
        scenario="test_sequential_flips_on_layered_dag",
        prepare=prepare,
        run=lambda ctx: sequential_flip_algorithm(ctx["compact"]),
        reference=lambda ctx: sequential_flip_algorithm_reference(ctx["reference"]),
        check_agreement=check_agreement,
    )


def _churn_gate() -> SuiteGate:
    from repro.core.orientation import DynamicOrientation, ScratchDynamicOrientation
    from repro.workloads import churn_smoke, churn_smoke_trace

    def replay(engine_cls, problem, trace):
        engine = engine_cls(problem, seed=2)
        for delta in trace:
            engine.apply(delta)
        return engine

    def prepare() -> dict:
        compact = churn_smoke(compact=True)
        reference = churn_smoke()
        trace = churn_smoke_trace(compact)
        # Warm caches like the benchmark.
        replay(DynamicOrientation, compact, trace)
        return {"compact": compact, "reference": reference, "trace": trace}

    def check_agreement(ctx: dict) -> Optional[str]:
        fast = DynamicOrientation(ctx["compact"], seed=2)
        ref = ScratchDynamicOrientation(ctx["reference"], seed=2)
        for step, delta in enumerate(ctx["trace"]):
            if fast.apply(delta) != ref.apply(delta):
                return (
                    f"incremental and scratch-reference engines disagree at "
                    f"churn update {step} ({delta!r})"
                )
        if fast.orientation().oriented_edges() != ref.orientation().oriented_edges():
            return (
                "incremental and scratch-reference engines disagree on the "
                "final orientation of the churn smoke trace"
            )
        return None

    # The reference replay rebuilds the mutated problem and re-solves it
    # from scratch on every update — exactly what a silent full-recompute
    # fallback inside the compact apply() would cost, so the ratio floor
    # (10x, overriding the CLI default) catches that fallback regardless
    # of runner speed.
    return SuiteGate(
        scenario="test_churn_smoke_scale",
        prepare=prepare,
        run=lambda ctx: replay(DynamicOrientation, ctx["compact"], ctx["trace"]),
        reference=lambda ctx: replay(
            ScratchDynamicOrientation, ctx["reference"], ctx["trace"]
        ),
        check_agreement=check_agreement,
        min_ratio=10.0,
    )


def _scale_gate() -> SuiteGate:
    from repro.core.orientation._kernels import stable_orientation_kernel
    from repro.workloads import SCALE_TIER_PARAMS, scale_layered_orientation

    # The 100k tier: large enough that a lost frontier batching or a
    # reintroduced O(n)-per-phase scan moves the median far beyond any
    # runner-speed wobble, small enough to re-time in CI.  No dict
    # reference exists at this size (avoiding it is the suite's point),
    # so this is a budget-only gate; the structural frontier guarantees
    # are enforced separately by tests/orientation/test_frontier_batching.
    def prepare() -> dict:
        graph = scale_layered_orientation(**SCALE_TIER_PARAMS["100k"])
        stable_orientation_kernel(graph, seed=0)  # warm derived caches
        return {"graph": graph}

    def check_agreement(ctx: dict) -> Optional[str]:
        heads, load, *_ = stable_orientation_kernel(ctx["graph"], seed=0)
        if any(h < 0 for h in heads):
            return "scale orientation left unoriented edges at the 100k tier"
        if max(load) > ctx["graph"].max_degree():
            return "scale orientation exceeded the max-degree load bound"
        return None

    return SuiteGate(
        scenario="test_scale_orientation[100k]",
        prepare=prepare,
        run=lambda ctx: stable_orientation_kernel(ctx["graph"], seed=0),
        check_agreement=check_agreement,
        gate_peak_mb=True,
    )


def _serve_gate() -> SuiteGate:
    from repro.core.orientation import DynamicOrientation
    from repro.serve import ServeConfig, ServerThread, connect
    from repro.workloads import serve_smoke, serve_smoke_trace

    batch = 256  # one request per chunk, the default ServeConfig.max_batch

    def replay(client, trace, batch_size):
        for lo in range(0, len(trace), batch_size):
            client.update(trace[lo : lo + batch_size])

    # Both paths drive a real server over loopback TCP.  The flap trace
    # is edge-set preserving, so the same persistent servers absorb
    # every timing round and setup stays out of the timed region; the
    # daemon server threads die with the process (this script is one
    # short-lived CI step, so no explicit teardown hook exists).
    def prepare() -> dict:
        trace = serve_smoke_trace(serve_smoke())
        fast_thread = ServerThread(
            DynamicOrientation(serve_smoke(), seed=2), ServeConfig()
        ).start()
        naive_thread = ServerThread(
            DynamicOrientation(serve_smoke(), seed=2), ServeConfig()
        ).start()
        fast = connect(fast_thread.address)
        naive = connect(naive_thread.address)
        replay(fast, trace, batch)  # warm both paths end to end
        replay(naive, trace, 1)
        return {
            "trace": trace,
            "fast": fast,
            "naive": naive,
            "threads": (fast_thread, naive_thread),
        }

    def check_agreement(ctx: dict) -> Optional[str]:
        # The server must add no semantics: a served coalesced session
        # equals a local engine applying the identical chunks.
        trace = ctx["trace"]
        engine = DynamicOrientation(serve_smoke(), seed=2)
        with ServerThread(engine, ServeConfig()) as thread:
            with connect(thread.address) as client:
                replay(client, trace, batch)
        reference = DynamicOrientation(serve_smoke(), seed=2)
        for lo in range(0, len(trace), batch):
            reference.apply_batch(trace[lo : lo + batch])
        if engine.loads() != reference.loads():
            return (
                "served coalesced replay and local apply_batch disagree "
                "on the final loads"
            )
        if engine.updates_applied != reference.updates_applied:
            return (
                "served coalesced replay lost or duplicated updates "
                f"({engine.updates_applied} vs {reference.updates_applied})"
            )
        if engine.unhappy_edges():
            return "served state is not stable after the flap trace"
        return None

    # The naive reference serves the same trace one delta per request —
    # one wire round trip and one re-stabilization each, i.e. serving
    # without the coalescing layer.  The ratio floor (10x) fails when
    # the updater stops amortizing per-request overhead, regardless of
    # runner speed.
    return SuiteGate(
        scenario="test_serve_coalesced_replay",
        prepare=prepare,
        run=lambda ctx: replay(ctx["fast"], ctx["trace"], batch),
        reference=lambda ctx: replay(ctx["naive"], ctx["trace"], 1),
        check_agreement=check_agreement,
        min_ratio=10.0,
        reference_label="naive",
    )


def _assignment_gate() -> SuiteGate:
    from repro.core.assignment import run_stable_assignment
    from repro.workloads import datacenter_assignment

    # The bench_assignment.py S=40 scenario (dict-only algorithm).
    def prepare() -> dict:
        graph = datacenter_assignment(
            num_jobs=240, num_servers=40, replicas=3, popularity_skew=1.2, seed=40
        )
        return {"graph": graph}

    return SuiteGate(
        scenario="test_assignment_rounds_vs_server_degree[40]",
        prepare=prepare,
        run=lambda ctx: run_stable_assignment(ctx["graph"], seed=1),
    )


def _semi_matching_gate() -> SuiteGate:
    from repro.core.assignment import optimal_cost
    from repro.workloads import datacenter_assignment

    def prepare() -> dict:
        graph = datacenter_assignment(
            num_jobs=200, num_servers=40, replicas=3, popularity_skew=1.5, seed=9
        )
        return {"graph": graph}

    return SuiteGate(
        scenario="test_optimal_semi_matching_cost",
        prepare=prepare,
        run=lambda ctx: optimal_cost(ctx["graph"]),
    )


def _lower_bounds_gate() -> SuiteGate:
    from repro.core.assignment import maximal_matching_via_bounded_assignment
    from repro.workloads import hard_matching_bipartite

    def prepare() -> dict:
        graph = hard_matching_bipartite(side=40, degree=4, seed=140)
        return {"graph": graph}

    return SuiteGate(
        scenario="test_matching_reduction_via_bounded_assignment[40]",
        prepare=prepare,
        run=lambda ctx: maximal_matching_via_bounded_assignment(
            ctx["graph"], seed=0
        ),
    )


#: Suite name -> gate factory (lazy, so a --suite run only imports what it
#: needs and a broken suite cannot take the other gates down at import).
GATES: Dict[str, Callable[[], SuiteGate]] = {
    "token_dropping": _token_dropping_gate,
    "orientation": _orientation_gate,
    "compact_core": _compact_core_gate,
    "churn": _churn_gate,
    "scale": _scale_gate,
    "serve": _serve_gate,
    "assignment": _assignment_gate,
    "semi_matching": _semi_matching_gate,
    "lower_bounds": _lower_bounds_gate,
}


def timed_median(fn: Callable[[], object], rounds: int) -> float:
    """Median wall time of ``fn`` over ``rounds`` runs."""
    times = []
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measured_peak_mb(fn: Callable[[], object]) -> float:
    """tracemalloc peak (MB) of one run — the benchmark conftest's metric."""
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not already_tracing:
            tracemalloc.stop()
    return peak / (1024 * 1024)


def timing_rounds(
    committed: float, base_rounds: int, min_budget: float = 0.05
) -> int:
    """More repetitions for fast scenarios, so medians beat noise.

    Scales the round count so every gate spends at least ``min_budget``
    seconds of total measurement per timed path (the same value that
    floors the per-scenario budget), capped at 25 rounds.
    """
    if committed <= 0:
        return base_rounds
    return max(base_rounds, min(25, int(min_budget / committed) + 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Fail when any committed BENCH_*.json scenario regresses."
    )
    parser.add_argument(
        "--suite", action="append", choices=sorted(GATES), default=None,
        help="gate only this suite (repeatable; default: all suites)",
    )
    parser.add_argument(
        "--max-factor", type=float, default=3.0,
        help="allowed multiple of the committed median (default 3)",
    )
    parser.add_argument(
        "--min-ratio", type=float, default=3.0,
        help="required dict/compact median ratio on this machine for "
        "compact-backed suites (default 3)",
    )
    parser.add_argument(
        "--max-mem-factor", type=float, default=3.0,
        help="allowed multiple of the committed peak_mb for memory-gated "
        "suites (default 3; tracemalloc peaks are machine-stable, the "
        "slack covers interpreter-version drift)",
    )
    parser.add_argument(
        "--min-mem-budget", type=float, default=64.0,
        help="absolute floor in MB for the memory budget, so small "
        "scenarios cannot flake on allocator noise (default 64)",
    )
    parser.add_argument(
        "--min-budget", type=float, default=0.05,
        help="absolute floor in seconds for the per-scenario budget, so "
        "millisecond-scale medians cannot flake on a slow runner "
        "(default 0.05)",
    )
    parser.add_argument(
        "--rounds", type=int, default=5,
        help="baseline timing repetitions; the median is compared "
        "(default 5; fast scenarios repeat more, see timing_rounds)",
    )
    parser.add_argument(
        "--bench-dir", type=Path, default=REPO_ROOT,
        help="directory holding the committed BENCH_*.json files "
        "(default: repo root)",
    )
    return parser


def check_suite(suite: str, gate: SuiteGate, args: argparse.Namespace) -> int:
    """Run one suite's gate; returns 0 (ok), 1 (failed), or 2 (unusable)."""
    bench_file = args.bench_dir / f"BENCH_{suite}.json"
    try:
        payload = json.loads(bench_file.read_text())
        row = payload["scenarios"][gate.scenario]
        committed = row["median_seconds"]
        budget = committed * args.max_factor
    except (OSError, ValueError, KeyError, TypeError):
        print(
            f"ERROR: no committed median for {gate.scenario!r} in "
            f"{bench_file}; regenerate it with: pytest "
            f"benchmarks/bench_{suite}.py --benchmark-only",
            file=sys.stderr,
        )
        return 2

    ctx = gate.prepare()

    # Agreement first: a fast-but-wrong kernel must fail before any timing.
    if gate.check_agreement is not None:
        error = gate.check_agreement(ctx)
        if error is not None:
            print(f"ERROR: [{suite}] {error}", file=sys.stderr)
            return 1

    rounds = timing_rounds(committed, args.rounds, args.min_budget)
    median = timed_median(lambda: gate.run(ctx), rounds)
    effective_budget = max(budget, args.min_budget)

    line = (
        f"[{suite}] {gate.scenario}: measured median {median:.4f}s, "
        f"committed {committed:.4f}s, budget {effective_budget:.4f}s "
        f"({args.max_factor:.1f}x, floor {args.min_budget:.2f}s)"
    )
    ratio = None
    min_ratio = gate.min_ratio if gate.min_ratio is not None else args.min_ratio
    if gate.reference is not None:
        ref_median = timed_median(lambda: gate.reference(ctx), rounds)
        ratio = ref_median / median if median else float("inf")
        line += (
            f"; {gate.reference_label} median {ref_median:.4f}s, "
            f"ratio {ratio:.1f}x (floor {min_ratio:.1f}x)"
        )

    peak_mb = None
    mem_budget = None
    committed_peak = (row.get("extra_info") or {}).get("peak_mb")
    if gate.gate_peak_mb and isinstance(committed_peak, (int, float)):
        peak_mb = measured_peak_mb(lambda: gate.run(ctx))
        mem_budget = max(committed_peak * args.max_mem_factor, args.min_mem_budget)
        line += (
            f"; peak {peak_mb:.1f}MB, committed {committed_peak:.1f}MB, "
            f"budget {mem_budget:.1f}MB"
        )

    failed = (
        median > effective_budget
        or (ratio is not None and ratio < min_ratio)
        or (peak_mb is not None and peak_mb > mem_budget)
    )
    print(line + (" — FAILED" if failed else " — OK"))
    if median > effective_budget:
        print(
            f"ERROR: [{suite}] {gate.scenario} regressed more than "
            f"{args.max_factor:.1f}x against the committed median",
            file=sys.stderr,
        )
    if ratio is not None and ratio < min_ratio:
        print(
            f"ERROR: [{suite}] gated path is only {ratio:.1f}x faster "
            f"than the {gate.reference_label} path on this machine (floor "
            f"{min_ratio:.1f}x) — likely a silent fall-back or "
            "kernel pessimisation",
            file=sys.stderr,
        )
    if peak_mb is not None and peak_mb > mem_budget:
        print(
            f"ERROR: [{suite}] {gate.scenario} peak memory {peak_mb:.1f}MB "
            f"exceeds the committed-peak budget {mem_budget:.1f}MB "
            f"({args.max_mem_factor:.1f}x of {committed_peak:.1f}MB, floor "
            f"{args.min_mem_budget:.0f}MB) — a memory regression",
            file=sys.stderr,
        )
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    suites = args.suite or sorted(GATES)

    worst = 0
    for suite in suites:
        gate = GATES[suite]()
        worst = max(worst, check_suite(suite, gate, args))
    if worst == 0:
        print(f"OK: {len(suites)} suite gate(s) within budget; oracles agree")
    return worst


if __name__ == "__main__":
    sys.exit(main())
