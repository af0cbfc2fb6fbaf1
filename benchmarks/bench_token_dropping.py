"""Experiments E1 & E3: round complexity of the token dropping algorithms.

E1 (Theorem 4.1): the proposal algorithm solves random layered games in
O(L·Δ²) game rounds.  We sweep the maximum degree Δ at fixed height and
the height L at fixed degree and record game rounds; the report's rows
are the per-parameter means plus the fitted growth exponents and the
worst-case ratio against the explicit bound (which must stay ≤ 1).

E3 (Theorem 4.7): on games with three levels the specialised algorithm
uses O(Δ) game rounds, a factor-Δ improvement over running the generic
algorithm on the same instances.

These benchmarks run *through the experiment engine*: each parametrized
case is one :class:`~repro.engine.TaskSpec` from the same specs (measure
function + grid) that ``scripts/run_experiments.py`` sweeps, so the
benchmark suite times exactly what the report measures.

Head-to-head: compact round kernels vs. the reference simulator
---------------------------------------------------------------
The ``test_*_head_to_head`` cases time the int-array token-dropping
kernels (:mod:`repro.core.token_dropping._kernels`, run by the
:class:`~repro.local_model.runner.Runner`) against their ``*_reference``
oracles on the dict reference scheduler, on layered DAGs at n ≈ 10,000
across heights and degrees. The solutions are asserted **identical**
(placements, used edges, pass histories, round counts) before any timing
is trusted, and the compact medians land in
``BENCH_token_dropping.json`` together with the measured reference
medians and the speedup.

``REPRO_BENCH_SMOKE=1`` shrinks the head-to-head instances to CI size and
skips the speedup floors (tiny timings are all constant overhead); the
agreement assertions always run.  ``test_proposal_smoke_scale`` times a
fixed ~4,000-node game in *every* mode — its committed median is the
baseline ``scripts/check_bench_regression.py`` re-times in CI.
"""

from __future__ import annotations

import os

import pytest
from _head_to_head import median_time, record_head_to_head

from repro.core.token_dropping import (
    greedy_token_dropping,
    greedy_token_dropping_reference,
    run_proposal_algorithm,
    run_proposal_algorithm_reference,
    run_three_level_algorithm,
    run_three_level_algorithm_reference,
)
from repro.engine import ExperimentSpec, execute_task, library, parameter_grid
from repro.workloads import random_token_dropping, token_dropping_smoke

DELTA_SWEEP = [2, 4, 6, 8, 12]
HEIGHT_SWEEP = [2, 4, 6, 8]

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: Minimum median speedup the compact token-dropping kernels must show at
#: full scale (the ISSUE acceptance floor; measured ratios run higher and
#: are tracked in BENCH_token_dropping.json).
REQUIRED_SPEEDUP = 10.0

if SMOKE:
    PROPOSAL_WIDE = dict(
        num_levels=5, width=40, edge_probability=0.1, token_fraction=0.7, seed=1
    )
    PROPOSAL_TALL = dict(
        num_levels=8, width=25, edge_probability=0.15, token_fraction=0.6, seed=1
    )
    THREE_LEVEL = dict(
        num_levels=3, width=70, edge_probability=0.06, token_fraction=0.6, seed=2
    )
    GREEDY = dict(
        num_levels=5, width=40, edge_probability=0.1, token_fraction=0.5, seed=1
    )
    REFERENCE_ROUNDS = 1
else:
    # Every instance has n ≈ 10,000 nodes; the three shapes sweep the
    # height/degree plane (short+wide, tall+narrow, three-level+dense).
    PROPOSAL_WIDE = dict(
        num_levels=10, width=1000, edge_probability=0.012, token_fraction=0.7, seed=1
    )
    PROPOSAL_TALL = dict(
        num_levels=20, width=500, edge_probability=0.012, token_fraction=0.6, seed=1
    )
    THREE_LEVEL = dict(
        num_levels=3, width=3334, edge_probability=0.008, token_fraction=0.6, seed=2
    )
    GREEDY = dict(
        num_levels=10, width=1000, edge_probability=0.004, token_fraction=0.5, seed=1
    )
    # A genuine median: one GC pause during a single multi-second reference
    # run would otherwise skew both the committed dict_median_seconds and
    # the hard >= 10x speedup assertion.
    REFERENCE_ROUNDS = 3


def _head_to_head(benchmark, record_rows, *, scenario, instance, run, reference):
    """Time ``run`` and its ``reference`` on ``instance``; they must agree."""
    fast = benchmark(lambda: run(instance))
    dict_median, ref = median_time(lambda: reference(instance), REFERENCE_ROUNDS)
    # Exact agreement: same placements, used edges, pass histories, and
    # round counts — solution equality covers all of them.
    assert ref == fast
    report = fast.validate(instance)
    report.raise_if_invalid()
    extra = dict(
        nodes=len(instance.graph),
        edges=instance.graph.num_edges(),
        height=instance.height,
        delta=instance.max_degree,
        tokens=instance.num_tokens,
    )
    if fast.game_rounds is not None:
        extra["game_rounds"] = fast.game_rounds
    else:
        extra["total_moves"] = fast.total_moves()
    record_head_to_head(
        record_rows,
        benchmark,
        scenario=scenario,
        dict_median=dict_median,
        required_speedup=REQUIRED_SPEEDUP,
        smoke=SMOKE,
        extra=extra,
    )


@pytest.mark.experiment("compact-td")
def test_proposal_wide_head_to_head(benchmark, record_rows):
    """Short, wide layered DAG (L=9): proposal kernel vs. reference."""
    _head_to_head(
        benchmark,
        record_rows,
        scenario="proposal_wide_dag",
        instance=random_token_dropping(**PROPOSAL_WIDE),
        run=run_proposal_algorithm,
        reference=run_proposal_algorithm_reference,
    )


@pytest.mark.experiment("compact-td")
def test_proposal_tall_head_to_head(benchmark, record_rows):
    """Tall, narrow layered DAG (L=19): proposal kernel vs. reference."""
    _head_to_head(
        benchmark,
        record_rows,
        scenario="proposal_tall_dag",
        instance=random_token_dropping(**PROPOSAL_TALL),
        run=run_proposal_algorithm,
        reference=run_proposal_algorithm_reference,
    )


@pytest.mark.experiment("compact-td")
def test_three_level_head_to_head(benchmark, record_rows):
    """Dense three-level game: height-3 kernel vs. reference."""
    _head_to_head(
        benchmark,
        record_rows,
        scenario="three_level_dense",
        instance=random_token_dropping(**THREE_LEVEL),
        run=run_three_level_algorithm,
        reference=run_three_level_algorithm_reference,
    )


@pytest.mark.experiment("compact-td")
def test_greedy_head_to_head(benchmark, record_rows):
    """Centralized greedy baseline: int-array kernel vs. reference loop."""
    _head_to_head(
        benchmark,
        record_rows,
        scenario="greedy_baseline",
        instance=random_token_dropping(**GREEDY),
        run=greedy_token_dropping,
        reference=greedy_token_dropping_reference,
    )


@pytest.mark.experiment("compact-td")
def test_proposal_smoke_scale(benchmark, record_rows):
    """Fixed ~4,000-node game timed in every mode (the CI regression baseline).

    Unlike the head-to-heads this scenario never changes size, so its
    committed median is comparable across runs;
    ``scripts/check_bench_regression.py`` fails CI when a fresh timing
    exceeds the committed median by more than its allowed factor.
    """
    instance = token_dropping_smoke()
    fast = benchmark(lambda: run_proposal_algorithm(instance))
    ref = run_proposal_algorithm_reference(instance)
    assert ref == fast
    record_rows(
        scenario="proposal_smoke_scale",
        nodes=len(instance.graph),
        edges=instance.graph.num_edges(),
        game_rounds=fast.game_rounds,
    )

E1_DELTA_SPEC = ExperimentSpec(
    name="E1-delta",
    measure=library.proposal_rounds_vs_delta,
    grid=parameter_grid(delta=DELTA_SWEEP),
    seeds=(0,),
)
E1_HEIGHT_SPEC = ExperimentSpec(
    name="E1-height",
    measure=library.proposal_rounds_vs_height,
    grid=parameter_grid(height=HEIGHT_SWEEP),
    seeds=(0,),
)
E3_SPEC = ExperimentSpec(
    name="E3",
    measure=library.three_level_vs_generic,
    grid=parameter_grid(delta=DELTA_SWEEP),
    seeds=(0,),
)
ABLATION_SPEC = ExperimentSpec(
    name="E1-ablation",
    measure=library.greedy_order_ablation,
    grid=parameter_grid(order=["first", "random", "highest_level", "lowest_level"]),
    seeds=(9,),
)


def _task_id(task) -> str:
    return "-".join(f"{k}{v}" for k, v in sorted(task.params.items()))


@pytest.mark.experiment("E1")
@pytest.mark.parametrize("task", E1_DELTA_SPEC.tasks(), ids=_task_id)
def test_proposal_rounds_vs_delta(benchmark, record_rows, task):
    """Game rounds of the proposal algorithm as Δ grows (fixed height 5)."""
    result = benchmark(lambda: execute_task(task))
    record_rows(experiment="E1", **result.values)
    assert result.values["bound_ratio"] <= 1.0


@pytest.mark.experiment("E1")
@pytest.mark.parametrize("task", E1_HEIGHT_SPEC.tasks(), ids=_task_id)
def test_proposal_rounds_vs_height(benchmark, record_rows, task):
    """Game rounds of the proposal algorithm as the height L grows (fixed Δ)."""
    result = benchmark(lambda: execute_task(task))
    record_rows(experiment="E1", **result.values)
    assert result.values["game_rounds"] <= result.values["bound"]


@pytest.mark.experiment("E3")
@pytest.mark.parametrize("task", E3_SPEC.tasks(), ids=_task_id)
def test_three_level_vs_generic(benchmark, record_rows, task):
    """Theorem 4.7's O(Δ) algorithm vs. the generic O(Δ²) one on 3-level games."""
    result = benchmark(lambda: execute_task(task))
    record_rows(experiment="E3", **result.values)
    # The specialised algorithm respects its linear bound.
    assert result.values["three_level_rounds"] <= result.values["linear_bound"]


@pytest.mark.experiment("E1-ablation")
@pytest.mark.parametrize("task", ABLATION_SPEC.tasks(), ids=_task_id)
def test_greedy_order_ablation(benchmark, record_rows, task):
    """Ablation: does the centralized move-selection order change total moves?"""
    result = benchmark(lambda: execute_task(task))
    record_rows(experiment="E1-ablation", **result.values)
    assert result.values["total_moves"] >= 0
