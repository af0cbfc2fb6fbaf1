"""Serial phase kernel vs the dict reference, on structural corner cases.

The compact phase kernel (Theorem 5.1) must be indistinguishable from the
``dict`` reference path: same heads, same loads, same phase count, same
per-phase round counts.  The cross-validation suite covers the workload
families; this suite adds seeded ``G(n, p)`` instances under every
tie-break policy, node ids of mixed Python types, edgeless graphs, the
single-component worst cases (a long path, a star), and kernel runs over
memoryview CSR buffers.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.core.orientation._kernels import stable_orientation_kernel
from repro.core.orientation.phases import (
    run_stable_orientation,
    run_stable_orientation_reference,
)
from repro.core.orientation.problem import OrientationProblem
from repro.graphs.compact import CSR_FIELDS, CompactGraph

TIE_BREAKS = ("min", "max", "random")

#: 10 seed blocks x 4 seeds x 3 tie-breaks = 120 random instances.
SEED_BLOCKS = range(10)
SEEDS_PER_BLOCK = 4


def _random_problem(seed: int, n: int = 40, p: float = 0.12) -> OrientationProblem:
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return OrientationProblem(edges, nodes=range(n))


def _signature(result):
    return (
        result.orientation.oriented_edges(),
        result.orientation.loads(),
        result.phases,
        result.game_rounds,
        result.communication_rounds,
        result.per_phase,
    )


def _assert_backends_agree(
    problem: OrientationProblem, tie_break: str, seed: int
) -> None:
    reference = run_stable_orientation_reference(
        problem, tie_break=tie_break, seed=seed
    )
    fast = run_stable_orientation(
        problem, tie_break=tie_break, seed=seed
    )
    assert _signature(fast) == _signature(reference), (tie_break, seed)
    assert fast.orientation.is_stable()


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("block", SEED_BLOCKS)
def test_random_instances_agree(block, tie_break):
    """Seeded G(n, p) instances: the compact run is bit for bit the reference."""
    for seed in range(block * SEEDS_PER_BLOCK, (block + 1) * SEEDS_PER_BLOCK):
        _assert_backends_agree(_random_problem(seed), tie_break, seed)


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_mixed_type_node_ids_agree(tie_break):
    """Strings, ints, tuples and floats as ids: the kernel sees dense ints,
    random tie-breaks order by ``repr``, and both must match the reference."""
    nodes = ["alpha", 7, ("srv", 1), 3.5, "beta", 0, ("srv", 2), -2]
    rng = random.Random(99)
    edges = [
        (u, v)
        for i, u in enumerate(nodes)
        for v in nodes[i + 1 :]
        if rng.random() < 0.5
    ]
    _assert_backends_agree(OrientationProblem(edges, nodes=nodes), tie_break, 99)


def test_edgeless_graph_agrees():
    """No edges: zero phases and all-zero loads from kernel and reference."""
    problem = OrientationProblem([], nodes=range(5))
    _assert_backends_agree(problem, "min", seed=0)
    graph = CompactGraph.from_orientation_problem(problem)
    heads, loads, phases, *_ = stable_orientation_kernel(graph, seed=0)
    assert phases == 0
    assert list(heads) == []
    assert list(loads) == [0] * 5


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_single_component_path_agrees(tie_break):
    """A path is one connected component spanning every node."""
    edges = [(i, i + 1) for i in range(200)]
    _assert_backends_agree(
        OrientationProblem(edges, nodes=range(201)), tie_break, seed=3
    )


def test_single_component_star_agrees():
    """A star concentrates every game edge on one hub node."""
    edges = [("hub", i) for i in range(80)]
    _assert_backends_agree(
        OrientationProblem(edges, nodes=["hub", *range(80)]), "min", seed=0
    )


def test_repeated_kernel_runs_are_identical():
    """Results are a function of the instance and the seed alone."""
    graph = CompactGraph.from_orientation_problem(_random_problem(7))
    first = stable_orientation_kernel(graph, tie_break="random", seed=7)
    again = stable_orientation_kernel(graph, tie_break="random", seed=7)
    assert again == first


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_kernel_over_memoryview_csr_agrees(tie_break):
    """``from_buffers`` over ``'q'`` memoryviews runs like the ``array`` graph."""
    nodes = ["alpha", 7, ("srv", 1), 3.5, *range(10, 40)]
    rng = random.Random(5)
    edges = [
        (u, v)
        for i, u in enumerate(nodes)
        for v in nodes[i + 1 :]
        if rng.random() < 0.15
    ]
    graph = CompactGraph.from_orientation_problem(
        OrientationProblem(edges, nodes=nodes)
    )
    views = {field: memoryview(getattr(graph, field)) for field in CSR_FIELDS}
    mirror = CompactGraph.from_buffers(graph.node_ids, views)
    assert isinstance(mirror.indices, memoryview)
    assert stable_orientation_kernel(
        mirror, tie_break=tie_break, seed=5
    ) == stable_orientation_kernel(graph, tie_break=tie_break, seed=5)


def test_snapshot_sections_feed_from_buffers_unchanged():
    """The write side and the read side of a snapshot agree field for field."""
    graph = CompactGraph.from_orientation_problem(_random_problem(4))
    sections = graph.snapshot_sections()
    assert list(sections) == list(CSR_FIELDS)
    assert all(isinstance(buf, array) for buf in sections.values())
    mirror = CompactGraph.from_buffers(
        graph.node_ids, {f: memoryview(buf) for f, buf in sections.items()}
    )
    assert stable_orientation_kernel(mirror, seed=4) == stable_orientation_kernel(
        graph, seed=4
    )
