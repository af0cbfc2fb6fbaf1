"""The public facade (:mod:`repro.api`) and its top-level re-exports.

The facade is a *thin* layer: every result it returns must agree
bit-for-bit with the historical entry points it delegates to
(``run_stable_orientation``, ``synchronous_repair_orientation``,
``run_bounded_stable_orientation``), whose signatures are unchanged.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import ALGORITHMS, Instance, Solved, solve
from repro.core.orientation import (
    DynamicOrientation,
    run_bounded_stable_orientation,
    run_bounded_stable_orientation_reference,
    run_stable_orientation,
    run_stable_orientation_reference,
    synchronous_repair_orientation,
    synchronous_repair_orientation_reference,
)
from repro.graphs.bipartite import CustomerServerGraph
from repro.graphs.compact import CompactGraph
from repro.workloads.scenarios import (
    ORIENTATION_FAMILIES,
    build_orientation_instance,
    layered_dag_orientation,
)


def _instance():
    return Instance.build(
        "layered", num_levels=6, width=10, edge_probability=0.3, seed=7
    )


def _reference(instance, algorithm, seed):
    """The dict oracle behind ``solve``: ``(heads, load, result)``."""
    graph = instance.graph
    if algorithm == "repair":
        orientation, result = synchronous_repair_orientation_reference(
            graph, seed=seed
        )
    else:
        oracle = {
            "phases": run_stable_orientation_reference,
            "bounded": run_bounded_stable_orientation_reference,
        }[algorithm]
        result = oracle(graph, seed=seed)
        orientation = result.orientation
    heads, load = orientation.to_arrays(graph)
    return heads, load, result


class TestInstance:
    def test_build_routes_through_the_family_registry(self):
        instance = _instance()
        direct = layered_dag_orientation(
            num_levels=6, width=10, edge_probability=0.3, seed=7, compact=True
        )
        assert tuple(instance.graph.node_ids) == tuple(direct.node_ids)
        assert list(instance.graph.edge_u) == list(direct.edge_u)
        assert instance.num_nodes == direct.num_nodes
        assert instance.num_edges == direct.num_edges

    def test_every_registered_family_is_buildable(self):
        small = {
            "sensor-network": dict(num_nodes=20, max_degree=4, seed=1),
            "regular": dict(degree=3, num_nodes=12, seed=1),
            "caterpillar": dict(spine=6, legs=2),
            "long-path": dict(length=15),
            "layered": dict(num_levels=3, width=4, seed=1),
            "orientation-smoke": dict(),
            "churn-smoke": dict(),
            "scale-layered": dict(
                num_levels=3, width=10, edge_probability=0.1, seed=1
            ),
        }
        assert set(small) == set(ORIENTATION_FAMILIES)
        for family, params in small.items():
            graph = build_orientation_instance(family, **params)
            assert isinstance(graph, CompactGraph), family
            assert graph.num_nodes > 0, family

    def test_unknown_family_lists_the_known_ones(self):
        with pytest.raises(ValueError, match="layered"):
            Instance.build("no-such-family")

    def test_from_edges_and_from_problem_agree(self):
        edges = [(1, 2), (2, 3), (1, 3), (3, 4)]
        via_edges = Instance.from_edges(edges)
        problem = via_edges.graph.to_orientation_problem()
        via_problem = Instance.from_problem(problem)
        assert tuple(via_edges.graph.node_ids) == tuple(
            via_problem.graph.node_ids
        )
        assert via_edges.num_edges == via_problem.num_edges == 4

    def test_wrapping_non_graph_rejected(self):
        with pytest.raises(TypeError):
            Instance({"not": "a graph"})

    def test_families_listing(self):
        assert Instance.families() == tuple(sorted(ORIENTATION_FAMILIES))


class TestSolve:
    def test_algorithms_constant_matches_dispatch(self):
        for algorithm in ALGORITHMS:
            solved = solve(_instance(), algorithm=algorithm, seed=3)
            assert isinstance(solved, Solved)
            assert solved.algorithm == algorithm
        with pytest.raises(ValueError, match="unknown algorithm"):
            solve(_instance(), algorithm="guess")

    def test_repair_compact_equals_dict_and_the_historical_entry_point(self):
        instance = _instance()
        fast = solve(instance, algorithm="repair", seed=11)
        heads, load, _ = _reference(instance, "repair", seed=11)
        assert fast.backend == "compact"
        assert fast.heads == heads
        assert fast.load == load
        # The historical entry point produces the identical orientation.
        orientation, _ = synchronous_repair_orientation(
            instance.graph.to_orientation_problem(), seed=11
        )
        assert fast.loads() == orientation.loads()
        for (u, v) in instance.graph.edge_keys():
            assert fast.head_of(u, v) == orientation.head_of(u, v)

    def test_phases_delegates_to_run_stable_orientation(self):
        instance = _instance()
        solved = solve(instance, algorithm="phases", seed=4)
        reference = run_stable_orientation(instance.graph, seed=4)
        assert solved.result.phases == reference.phases
        assert solved.loads() == reference.orientation.loads()
        assert solved.is_stable()

    def test_bounded_delegates_to_run_bounded_stable_orientation(self):
        instance = _instance()
        solved = solve(instance, algorithm="bounded", seed=4, k=2)
        reference = run_bounded_stable_orientation(instance.graph, seed=4, k=2)
        assert solved.result.k == reference.k
        assert solved.loads() == reference.orientation.loads()

    def test_bare_compact_graph_is_accepted(self):
        graph = _instance().graph
        solved = solve(graph, seed=2)
        assert isinstance(solved.instance, Instance)
        assert solved.instance.graph is graph

    def test_unsupported_input_rejected(self):
        with pytest.raises(TypeError):
            solve([("a", "b")])

    def test_solved_accessors(self):
        solved = solve(_instance(), seed=1)
        loads = solved.loads()
        assert sum(loads.values()) == solved.instance.num_edges
        assert solved.max_load() == max(loads.values())
        assert solved.is_stable()


class TestSolveStaysOnArrays:
    """The compact ``solve`` hands back the kernel's arrays: it builds no
    dict ``OrientationProblem``, orientation or assignment on the way."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_dict_view_is_built(self, monkeypatch, algorithm):
        def refuse(*args, **kwargs):
            raise AssertionError("a dict view was built")

        instance = _instance()
        with monkeypatch.context() as patched:
            patched.setattr(CompactGraph, "to_orientation_problem", refuse)
            patched.setattr(CustomerServerGraph, "from_validated_adjacency", refuse)
            solved = solve(instance, algorithm=algorithm, seed=6)
            if algorithm == "bounded":
                assert solved.result.stable
            else:
                assert solved.is_stable()
        recount = [0] * instance.num_nodes
        for head in solved.heads:
            recount[head] += 1
        assert type(solved.heads) is list and type(solved.load) is list
        assert solved.load == recount

        heads, load, ref = _reference(instance, algorithm, seed=6)
        assert solved.heads == heads
        assert solved.load == load
        if algorithm == "repair":
            assert solved.result == ref
            return
        # Materialized afterwards, the lazy views equal the reference's.
        fast = solved.result
        assert fast.orientation.oriented_edges() == ref.orientation.oriented_edges()
        assert fast.orientation.loads() == ref.orientation.loads()
        assert fast.per_phase == ref.per_phase
        if algorithm == "bounded":
            assert (
                fast.assignment_result.assignment.choices()
                == ref.assignment_result.assignment.choices()
            )

    def test_the_guard_catches_a_dict_view(self, monkeypatch):
        monkeypatch.setattr(
            CompactGraph,
            "to_orientation_problem",
            lambda self: pytest.fail("a dict view was built"),
        )
        solved = solve(_instance(), algorithm="phases")
        with pytest.raises(pytest.fail.Exception, match="dict view"):
            solved.result.orientation.loads()


class TestDynamicHandoff:
    def test_dynamic_enters_the_engine_without_resolving(self):
        solved = solve(_instance(), seed=9)
        engine = solved.dynamic()
        assert isinstance(engine, DynamicOrientation)
        assert engine.loads() == solved.loads()
        assert engine.seed == 9
        assert engine.updates_applied == 0
        assert not engine.unhappy_edges()

    def test_dynamic_replay_matches_a_solve_time_engine(self):
        instance = _instance()
        solved = solve(instance, seed=9)
        via_facade = solved.dynamic()
        direct = DynamicOrientation(instance.graph, seed=9)
        trace = [repro.EdgeInsert((0, 0), (5, 9)), repro.EdgeDelete((0, 0), (5, 9))]
        for delta in trace:
            assert via_facade.apply(delta) == direct.apply(delta)
        assert via_facade.loads() == direct.loads()


class TestTopLevelReExports:
    def test_facade_names_are_lazily_re_exported(self):
        assert repro.solve is solve
        assert repro.Instance is Instance
        assert repro.Solved is Solved
        assert repro.DynamicOrientation is DynamicOrientation

    def test_dir_includes_the_facade(self):
        names = dir(repro)
        for name in ("Instance", "Solved", "solve", "EdgeInsert", "NodeLeave"):
            assert name in names

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_name


class TestHistoricalWrappersUnchanged:
    def test_signatures_are_stable(self):
        import inspect

        assert list(
            inspect.signature(run_stable_orientation).parameters
        ) == [
            "problem",
            "tie_break",
            "seed",
            "check_invariants",
            "max_phases",
            "backend",
        ]
        assert list(
            inspect.signature(synchronous_repair_orientation).parameters
        ) == ["problem", "initial", "seed", "max_iterations"]
        assert list(
            inspect.signature(run_bounded_stable_orientation).parameters
        ) == ["problem", "k", "tie_break", "seed", "check_invariants", "backend"]
