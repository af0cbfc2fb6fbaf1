"""Flat arrays as the solve result: :class:`DenseOrientation` and its lazy views.

Every compact entry point returns the kernel's ``heads``/``load`` arrays
wrapped in a :class:`DenseOrientation`; the dict view (``problem``,
per-edge heads, per-node loads) and the bounded result's assignment run
are built only when a caller reads them.  These tests pin two things:
the lazy views equal what the dict reference builds, and the array-side
queries (stability included) equal their dict-side definitions.  That
``repro.solve`` builds no dict view is pinned in ``tests/test_api.py``.
"""

from __future__ import annotations

import dataclasses
import gc
import random

import pytest

import repro
from repro.core.orientation import (
    Orientation,
    OrientationError,
    OrientationProblem,
    bounded_unhappy_edges,
    run_bounded_stable_orientation,
    run_stable_orientation,
    run_stable_orientation_reference,
    sequential_flip_algorithm,
    sequential_flip_algorithm_reference,
    synchronous_repair_orientation,
    synchronous_repair_orientation_reference,
)
from repro.core.orientation import _kernels
from repro.core.orientation.problem import DenseOrientation
from repro.graphs.compact import CompactGraph
from repro.graphs.generators import bounded_degree_gnp
from repro.workloads import (
    layered_dag_orientation,
    regular_orientation,
    sensor_network_orientation,
)


def _graph(seed: int = 5) -> CompactGraph:
    return repro.Instance.build(
        "layered", num_levels=6, width=10, edge_probability=0.3, seed=seed
    ).graph


def _random_dense(graph: CompactGraph, seed: int) -> DenseOrientation:
    """An arbitrary (usually unstable) complete orientation as arrays."""
    rng = random.Random(seed)
    heads = [
        graph.edge_u[e] if rng.random() < 0.5 else graph.edge_v[e]
        for e in range(graph.num_edges)
    ]
    load = [0] * graph.num_nodes
    for h in heads:
        load[h] += 1
    return DenseOrientation(graph, heads, load)


def _dict_copy(dense: DenseOrientation) -> Orientation:
    """The same orientation as a plain reference Orientation, built by orient()."""
    graph = dense.graph
    plain = Orientation(graph.to_orientation_problem())
    for e, (u, v) in enumerate(graph.edge_keys()):
        plain.orient(u, v, graph.node_ids[dense.head_array[e]])
    return plain


class TestCompactEntryPointsKeepArrays:
    def test_phases_result_holds_the_kernel_arrays(self):
        graph = _graph()
        result = run_stable_orientation(graph, seed=3)
        heads, load, *_ = _kernels.stable_orientation_kernel(graph, seed=3)
        assert isinstance(result.orientation, DenseOrientation)
        arrays = result.orientation.to_arrays(graph)
        assert arrays == (heads, load)
        assert arrays[0] is result.orientation.head_array

    def test_bounded_result_holds_the_kernel_arrays(self):
        graph = _graph()
        result = run_bounded_stable_orientation(graph, seed=3)
        choice, load, *_ = _kernels.bounded_orientation_kernel(graph, seed=3)
        assert isinstance(result.orientation, DenseOrientation)
        assert result.orientation.to_arrays(graph) == (choice, load)
        assert result.per_phase == result.assignment_result.per_phase

    @pytest.mark.parametrize("entry", ["repair", "sequential"])
    def test_baselines_return_dense_orientations(self, entry):
        graph = _graph()
        if entry == "repair":
            fast, _ = synchronous_repair_orientation(graph, seed=2)
            ref, _ = synchronous_repair_orientation_reference(graph, seed=2)
        else:
            fast, _ = sequential_flip_algorithm(graph, seed=2)
            ref, _ = sequential_flip_algorithm_reference(graph, seed=2)
        assert isinstance(fast, DenseOrientation)
        assert fast.to_arrays(graph) == ref.to_arrays(graph)
        assert fast.oriented_edges() == ref.oriented_edges()


class TestLazyDictView:
    def test_view_is_built_on_first_use_and_equals_the_reference(self):
        graph = _graph()
        fast = run_stable_orientation(graph, seed=1).orientation
        ref = run_stable_orientation_reference(graph, seed=1).orientation
        assert "_heads" not in vars(fast)
        assert fast.oriented_edges() == ref.oriented_edges()
        assert "_heads" in vars(fast)
        assert fast.loads() == ref.loads()
        assert fast.problem is graph.to_orientation_problem()

    def test_view_keeps_the_callers_problem(self):
        problem = _graph().to_orientation_problem()
        fast = run_stable_orientation(problem).orientation
        assert fast.problem is problem

    def test_view_is_read_only_and_copy_is_editable(self):
        graph = _graph()
        dense = run_stable_orientation(graph).orientation
        u, v = graph.edge_keys()[0]
        with pytest.raises(OrientationError, match="read-only"):
            dense.flip(u, v)
        with pytest.raises(OrientationError, match="read-only"):
            dense.orient(u, v, head=u)
        clone = dense.copy()
        assert type(clone) is Orientation
        clone.flip(u, v)
        assert clone.head_of(u, v) != dense.head_of(u, v)
        assert dense.to_arrays(graph)[0] == dense.head_array

    def test_unknown_attributes_still_raise(self):
        dense = _random_dense(_graph(), seed=0)
        with pytest.raises(AttributeError):
            dense.no_such_attribute
        assert "_heads" not in vars(dense)

    def test_foreign_graph_falls_back_to_the_dict_unwrap(self):
        graph = _graph()
        dense = _random_dense(graph, seed=4)
        twin = CompactGraph.from_edges(graph.edge_keys(), nodes=graph.node_ids)
        assert dense.to_arrays(twin) == (dense.head_array, dense.load_array)
        bigger = CompactGraph.from_edges(
            graph.edge_keys(), nodes=(*graph.node_ids, "extra")
        )
        with pytest.raises(KeyError):
            dense.to_arrays(bigger)


class TestArrayQueriesMatchTheirDefinitions:
    @pytest.mark.parametrize("seed", range(6))
    def test_against_a_plain_orientation(self, seed):
        dense = _random_dense(_graph(seed), seed)
        plain = _dict_copy(dense)
        assert dense.unhappy_edges() == plain.unhappy_edges()
        assert dense.is_stable() == plain.is_stable()
        assert dense.is_complete() and plain.is_complete()
        for k in (2, 3):
            assert bounded_unhappy_edges(dense, k) == bounded_unhappy_edges(plain, k)
        assert "_heads" not in vars(dense)
        assert dense.to_arrays(dense.graph) == plain.to_arrays(dense.graph)

    def test_edgeless(self):
        graph = CompactGraph.from_edges([], nodes=["a", "b", 3])
        for result in (
            run_stable_orientation(graph),
            run_bounded_stable_orientation(graph),
        ):
            assert result.stable
            assert result.orientation.to_arrays(graph) == ([], [0, 0, 0])
            assert result.orientation.loads() == {"a": 0, "b": 0, 3: 0}
        assert run_bounded_stable_orientation(graph).assignment_result is None


class TestStabilityFromArrays:
    """``result.stable`` reads the arrays and agrees with the dict view."""

    @staticmethod
    def _instance(family: str, seed: int) -> CompactGraph:
        # The families and sizes of the compact cross-validation suite.
        if family == "gnp":
            problem = OrientationProblem.from_networkx(
                bounded_degree_gnp(26, 0.25, 6, seed=seed)
            )
            return CompactGraph.from_orientation_problem(problem)
        if family == "regular":
            return regular_orientation(degree=4, num_nodes=24, seed=seed, compact=True)
        if family == "layered":
            return layered_dag_orientation(
                num_levels=4, width=6, edge_probability=0.5, seed=seed, compact=True
            )
        return sensor_network_orientation(
            num_nodes=30, max_degree=6, seed=seed, compact=True
        )

    @staticmethod
    def _view_answers(result, k: int = 2):
        """(strict, k-relaxed) stability of the materialized dict view."""
        view = result.orientation.copy()  # a plain Orientation of the view
        return view.is_stable(), not bounded_unhappy_edges(view, k)

    @pytest.mark.parametrize("family", ["gnp", "regular", "layered", "sensor"])
    def test_array_answer_equals_the_dict_view_answer(self, family):
        for seed in range(5):
            graph = self._instance(family, seed)
            phases = run_stable_orientation(graph, seed=seed)
            assert phases.stable, (family, seed)
            assert "_heads" not in vars(phases.orientation)
            assert self._view_answers(phases)[0] is True
            for k in (2, 3):
                bounded = run_bounded_stable_orientation(
                    graph, k=k, seed=seed
                )
                assert bounded.stable, (family, seed, k)
                assert "_heads" not in vars(bounded.orientation)
                assert self._view_answers(bounded, k)[1] is True

    def test_hand_corrupted_heads_are_unstable_both_ways(self):
        # A star: every stable orientation spreads the spokes; pointing all
        # of them at the centre leaves loads 3, 0, 0, 0.
        graph = CompactGraph.from_edges([("c", leaf) for leaf in range(3)])
        centre = graph.index_of["c"]
        phases = run_stable_orientation(graph)
        bounded = run_bounded_stable_orientation(graph)
        assert phases.stable and bounded.stable
        load = [0] * graph.num_nodes
        load[centre] = graph.num_edges
        corrupt = DenseOrientation(graph, [centre] * graph.num_edges, load)
        phases = dataclasses.replace(phases, orientation=corrupt)
        bounded = dataclasses.replace(bounded, orientation=corrupt)
        assert phases.stable is False
        assert bounded.stable is False
        assert self._view_answers(phases) == (False, False)


class TestKernelsPauseTheCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, monkeypatch, enabled):
        seen = []
        real = _kernels.directed_ranks

        def spy(graph):
            seen.append(gc.isenabled())
            return real(graph)

        monkeypatch.setattr(_kernels, "directed_ranks", spy)
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            _kernels.repair_kernel(_graph(), seed=1)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()
        assert seen == [False]
