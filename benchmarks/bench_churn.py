"""Churn: incremental re-stabilization vs. recompute-from-scratch.

The production story behind :mod:`repro.core.orientation.incremental`:
once an instance is solved, each arrival/departure/failure should cost
work proportional to the affected region, not a fresh solve of the whole
graph.  This suite replays long seeded churn traces
(:func:`repro.workloads.churn_trace`) on the compact engine and compares
the median per-update re-stabilization time against recomputing the
mutated instance from scratch (CSR re-intern + compact repair solve,
sampled along the same trace):

* ``test_churn_full_scale`` — 1,000 mixed updates on the 10,000-node E1
  layered DAG of the orientation head-to-heads; asserts the incremental
  median beats the scratch median by at least
  :data:`REQUIRED_CHURN_RATIO` (10x; in practice it is orders of
  magnitude) and that the final state is a fixed point of the reference
  repair.
* ``test_churn_smoke_scale`` — the fixed ``churn_smoke`` scenario the CI
  perf-regression gate re-times (``scripts/check_bench_regression.py``,
  which also enforces its own incremental-vs-scratch ratio floor so a
  silent full-recompute fallback inside ``apply`` fails CI).  The full
  lockstep agreement with ``ScratchDynamicOrientation`` is asserted here
  before the timing is ever committed.

``REPRO_BENCH_SMOKE=1`` shrinks the full-scale trace to CI size and
skips the ratio assertion; the agreement checks always run.  The
committed ``BENCH_churn.json`` is regenerated with::

    pytest benchmarks/bench_churn.py --benchmark-only
"""

from __future__ import annotations

import os
import statistics
import time

import pytest
from _head_to_head import phase_medians

from repro.core.orientation import (
    DynamicOrientation,
    ScratchDynamicOrientation,
    synchronous_repair_orientation,
    synchronous_repair_orientation_reference,
)
from repro.graphs.compact import CompactGraph
from repro.workloads import churn_smoke, churn_smoke_trace, churn_trace
from repro.workloads.scenarios import layered_dag_orientation

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: Minimum ratio of scratch-recompute median to incremental median.
REQUIRED_CHURN_RATIO = 10.0

if SMOKE:
    FULL_PARAMS = dict(num_levels=8, width=10, edge_probability=0.3, seed=2)
    NUM_UPDATES = 60
    SCRATCH_EVERY = 20
else:
    # 50 x 200 = 10,000 nodes of the E1 layered-DAG family — the same
    # instance the orientation head-to-heads solve once, here mutated
    # 1,000 times.
    FULL_PARAMS = dict(num_levels=50, width=200, edge_probability=0.02, seed=2)
    NUM_UPDATES = 1000
    SCRATCH_EVERY = 50

TRACE_SEED = 31
SOLVE_SEED = 2


def _replay(problem, trace, *, timings=None):
    """Fresh engine, full trace replay; optionally collect per-update times."""
    engine = DynamicOrientation(problem, seed=SOLVE_SEED)
    for delta in trace:
        if timings is None:
            engine.apply(delta)
        else:
            start = time.perf_counter()
            engine.apply(delta)
            timings.append(time.perf_counter() - start)
    return engine


@pytest.mark.experiment("churn")
def test_churn_full_scale(benchmark, record_rows):
    """1,000 mixed updates at n=10,000: incremental vs. scratch medians."""
    problem = layered_dag_orientation(**FULL_PARAMS, compact=True)
    trace = churn_trace(
        problem, num_updates=NUM_UPDATES, seed=TRACE_SEED, mix="mixed"
    )

    # The timed body is one full-trace replay (initial solve included);
    # the quantity the ISSUE cares about — median seconds per update —
    # is measured per apply() and recorded in extra_info.
    per_update = []

    def replay():
        per_update.clear()
        return _replay(problem, trace, timings=per_update)

    engine = benchmark(replay)
    assert engine.is_stable()

    # Scratch comparator, sampled along an untimed replay of the same
    # trace: what a non-incremental deployment pays per update — re-intern
    # the mutated edge set and solve it with the compact repair kernel.
    scratch_times = []
    sampler = DynamicOrientation(problem, seed=SOLVE_SEED)
    for step, delta in enumerate(trace):
        sampler.apply(delta)
        if step % SCRATCH_EVERY == 0:
            snapshot = sampler.orientation().problem
            edges, nodes = snapshot.edges, snapshot.nodes
            start = time.perf_counter()
            mutated = CompactGraph.from_edges(edges, nodes=nodes)
            solved, _ = synchronous_repair_orientation(
                mutated, seed=SOLVE_SEED
            )
            scratch_times.append(time.perf_counter() - start)
            assert solved.is_stable()

    # The incremental final state is a fixed point of the reference
    # repair on the final mutated instance (0 iterations, identical
    # orientation) — the full per-update bit-for-bit bar is enforced by
    # tests/integration/test_incremental_churn.py and the smoke test
    # below.
    final = engine.orientation()
    fixed_point, fixed_stats = synchronous_repair_orientation_reference(
        final.problem, initial=final, seed=SOLVE_SEED
    )
    assert fixed_stats.iterations == 0
    assert fixed_point.oriented_edges() == final.oriented_edges()

    incremental_median = statistics.median(per_update)
    scratch_median = statistics.median(scratch_times)
    ratio = scratch_median / incremental_median
    record_rows(
        scenario="layered_dag_churn",
        nodes=len(problem.node_ids),
        edges=problem.num_edges,
        updates=len(trace),
        scratch_samples=len(scratch_times),
        incremental_median_seconds=incremental_median,
        scratch_median_seconds=scratch_median,
        incremental_vs_scratch_ratio=ratio,
    )
    if not SMOKE:
        assert ratio >= REQUIRED_CHURN_RATIO, (
            f"incremental re-stabilization is only {ratio:.1f}x faster than "
            f"recompute-from-scratch (median {incremental_median:.6f}s vs "
            f"{scratch_median:.6f}s)"
        )


@pytest.mark.experiment("churn")
def test_churn_smoke_scale(benchmark, record_rows):
    """The fixed mid-size churn replay the CI perf-regression gate re-times.

    Timed on the incremental engine; the scratch oracle replays the same
    trace in lockstep first (untimed) and every update's result must agree, so
    a fast-but-wrong incremental path fails before its timing is ever
    committed.
    """
    compact_problem = churn_smoke(compact=True)
    reference_problem = churn_smoke()
    trace = churn_smoke_trace(compact_problem)
    assert trace == churn_smoke_trace(reference_problem)

    fast = DynamicOrientation(compact_problem, seed=SOLVE_SEED)
    reference = ScratchDynamicOrientation(reference_problem, seed=SOLVE_SEED)
    for step, delta in enumerate(trace):
        assert fast.apply(delta) == reference.apply(delta), (step, delta)
    assert fast.orientation().oriented_edges() == (
        reference.orientation().oriented_edges()
    )
    assert fast.loads() == reference.loads()

    engine = benchmark(lambda: _replay(compact_problem, trace))
    assert engine.is_stable()
    assert engine.orientation().oriented_edges() == (
        reference.orientation().oriented_edges()
    )
    record_rows(
        scenario="churn_smoke",
        nodes=len(compact_problem.node_ids),
        edges=compact_problem.num_edges,
        updates=len(trace),
        **phase_medians(lambda: _replay(compact_problem, trace)),
    )
