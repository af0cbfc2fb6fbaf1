"""Head-to-head: compact kernels vs. their ``*_reference`` dict oracles.

Every entry point with a kernel (sequential flips, best-response dynamics,
greedy semi-matching) is timed against its reference on the same instance —
the E1 layered-DAG family and the datacenter-assignment family at
``n >= 10,000`` nodes — and the results are asserted *identical* before
any timing is trusted.  The compact medians land in
``BENCH_compact_core.json`` (via the suite-wide conftest hook) together
with the measured reference-path medians and the speedup, so the
compact-core perf trajectory is tracked across PRs.

Scale control
-------------
``REPRO_BENCH_SMOKE=1`` shrinks every instance to CI-smoke size and skips
the speedup assertions (timings on tiny instances are dominated by
constant overheads); the agreement checks always run, so a smoke run
still fails if the compact path disagrees with the reference path on any
sampled instance:

    REPRO_BENCH_SMOKE=1 pytest benchmarks/bench_compact_core.py --benchmark-disable
"""

from __future__ import annotations

import os

import pytest
from _head_to_head import compact_median, median_time, record_head_to_head

from repro.core.assignment import (
    best_response_dynamics,
    best_response_dynamics_reference,
    greedy_assignment,
    greedy_assignment_reference,
)
from repro.core.orientation import (
    sequential_flip_algorithm,
    sequential_flip_algorithm_reference,
)
from repro.graphs.compact import CompactBipartite
from repro.workloads import datacenter_assignment, layered_dag_orientation

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: Minimum median speedup the compact kernels must show at full scale.
REQUIRED_SPEEDUP = 2.0

if SMOKE:
    LAYERED_PARAMS = dict(num_levels=8, width=8, edge_probability=0.3, seed=0)
    DATACENTER_PARAMS = dict(
        num_jobs=150, num_servers=30, replicas=3, popularity_skew=1.2, seed=0
    )
    REFERENCE_ROUNDS = 1
else:
    # 100 x 100 = 10,000 nodes; 8,500 + 1,500 = 10,000 nodes.
    LAYERED_PARAMS = dict(num_levels=100, width=100, edge_probability=0.003, seed=0)
    DATACENTER_PARAMS = dict(
        num_jobs=8500, num_servers=1500, replicas=3, popularity_skew=1.2, seed=0
    )
    REFERENCE_ROUNDS = 3


@pytest.mark.experiment("compact-core")
def test_sequential_flips_on_layered_dag(benchmark, record_rows):
    """E1 layered-DAG orientation: int-array flip kernel vs. dict loop."""
    reference_problem = layered_dag_orientation(**LAYERED_PARAMS)
    compact_problem = layered_dag_orientation(**LAYERED_PARAMS, compact=True)

    fast, fast_stats = benchmark(lambda: sequential_flip_algorithm(compact_problem))
    dict_median, (ref, ref_stats) = median_time(
        lambda: sequential_flip_algorithm_reference(reference_problem),
        REFERENCE_ROUNDS,
    )

    assert ref.oriented_edges() == fast.oriented_edges()
    assert ref.loads() == fast.loads()
    assert ref_stats == fast_stats
    assert fast.is_stable()
    record_head_to_head(
        record_rows,
        benchmark,
        scenario="layered_dag_sequential_flips",
        dict_median=dict_median,
        required_speedup=REQUIRED_SPEEDUP,
        smoke=SMOKE,
        extra=dict(
            nodes=len(compact_problem.node_ids),
            edges=compact_problem.num_edges,
            flips=fast_stats.flips,
        ),
    )


@pytest.mark.experiment("compact-core")
def test_best_response_on_datacenter(benchmark, record_rows):
    """Datacenter assignment: int-array best-response kernel vs. dict loop."""
    reference_graph = datacenter_assignment(**DATACENTER_PARAMS)
    compact_graph = datacenter_assignment(**DATACENTER_PARAMS, compact=True)

    fast, fast_stats = benchmark(lambda: best_response_dynamics(compact_graph))
    dict_median, (ref, ref_stats) = median_time(
        lambda: best_response_dynamics_reference(reference_graph),
        REFERENCE_ROUNDS,
    )

    assert ref.choices() == fast.choices()
    assert ref.loads() == fast.loads()
    assert ref_stats == fast_stats
    assert fast.is_stable()
    record_head_to_head(
        record_rows,
        benchmark,
        scenario="datacenter_best_response",
        dict_median=dict_median,
        required_speedup=REQUIRED_SPEEDUP,
        smoke=SMOKE,
        extra=dict(
            jobs=compact_graph.num_customers,
            servers=compact_graph.num_servers,
            moves=fast_stats.moves,
        ),
    )


@pytest.mark.experiment("compact-core")
def test_greedy_semi_matching_on_datacenter(benchmark, record_rows):
    """Greedy semi-matching: single-pass kernel on a pre-interned instance.

    Greedy is a single pass, so the kernel only pays off when the
    instance is already compact (which is exactly when
    ``greedy_assignment`` takes it); no >= 2x floor is asserted here — the
    row tracks the ratio.
    """
    reference_graph = datacenter_assignment(**DATACENTER_PARAMS)
    compact_graph = datacenter_assignment(**DATACENTER_PARAMS, compact=True)

    fast = benchmark(lambda: greedy_assignment(compact_graph))
    dict_median, ref = median_time(
        lambda: greedy_assignment_reference(reference_graph),
        REFERENCE_ROUNDS,
    )

    assert ref.choices() == fast.choices()
    assert ref.semi_matching_cost() == fast.semi_matching_cost()
    measured = compact_median(benchmark)
    record_rows(
        scenario="datacenter_greedy_semi_matching",
        dict_median_seconds=dict_median,
        cost=fast.semi_matching_cost(),
        **({"speedup": dict_median / measured} if measured else {}),
    )


@pytest.mark.parametrize("seed", range(6 if SMOKE else 3))
def test_backends_agree_on_sampled_instances(seed):
    """Per-seed agreement sampling (runs in smoke mode / plain pytest)."""
    problem = layered_dag_orientation(
        num_levels=5, width=6, edge_probability=0.4, seed=seed
    )
    for policy in ("first", "random", "max_badness"):
        ref, ref_stats = sequential_flip_algorithm_reference(
            problem, policy=policy, seed=seed
        )
        fast, fast_stats = sequential_flip_algorithm(
            problem, policy=policy, seed=seed
        )
        assert ref.oriented_edges() == fast.oriented_edges(), (seed, policy)
        assert ref_stats == fast_stats, (seed, policy)

    graph = datacenter_assignment(num_jobs=60, num_servers=12, replicas=3, seed=seed)
    for policy in ("first", "random"):
        ref, ref_stats = best_response_dynamics_reference(
            graph, policy=policy, seed=seed
        )
        fast, fast_stats = best_response_dynamics(
            graph, policy=policy, seed=seed
        )
        assert ref.choices() == fast.choices(), (seed, policy)
        assert ref_stats == fast_stats, (seed, policy)
    compact = CompactBipartite.from_customer_server_graph(graph)
    for order in ("sorted", "random"):
        ref = greedy_assignment_reference(graph, order=order, seed=seed)
        fast = greedy_assignment(compact, order=order, seed=seed)
        assert ref.choices() == fast.choices(), (seed, order)
