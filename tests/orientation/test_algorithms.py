"""Tests for the stable orientation algorithms.

Covers the phase-based O(Δ⁴) algorithm (Theorem 5.1), the centralized flip
baseline, the repair baseline, and the invariants they all must share
(stability of the output, Lemma 5.4's badness invariant, phase bounds).
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orientation import (
    FLIP_POLICIES,
    OrientationProblem,
    arbitrary_complete_orientation,
    check_stable,
    run_stable_orientation,
    run_stable_orientation_reference,
    sequential_flip_algorithm,
    synchronous_repair_orientation,
    theoretical_phase_bound,
    theoretical_round_bound,
)
from repro.core.orientation._kernels import stable_orientation_kernel
from repro.graphs.compact import CompactGraph
from repro.graphs.generators import (
    bounded_degree_gnp,
    caterpillar_graph,
    cycle_graph,
    path_graph,
    perfect_dary_tree,
    random_regular_graph,
    star_graph,
)
from repro.local_model.errors import AlgorithmError


def problems_for_testing():
    """A small battery of named problems used across parametrised tests."""
    return {
        "path": OrientationProblem.from_networkx(path_graph(10)),
        "cycle": OrientationProblem.from_networkx(cycle_graph(9)),
        "star": OrientationProblem.from_networkx(star_graph(6)),
        "tree": OrientationProblem.from_networkx(perfect_dary_tree(3, 3)[0]),
        "regular": OrientationProblem.from_networkx(
            random_regular_graph(4, 14, seed=2)
        ),
        "gnp": OrientationProblem.from_networkx(
            bounded_degree_gnp(25, 0.25, 6, seed=4)
        ),
        "caterpillar": OrientationProblem.from_networkx(caterpillar_graph(6, 3)),
        "single_edge": OrientationProblem(edges=[(0, 1)]),
        "empty": OrientationProblem(edges=[], nodes=[0, 1, 2]),
    }


PROBLEMS = problems_for_testing()


class TestSequentialFlip:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_produces_stable_orientation(self, name):
        problem = PROBLEMS[name]
        orientation, stats = sequential_flip_algorithm(problem)
        assert orientation.is_stable()
        assert check_stable(orientation) == []
        assert stats.final_potential <= stats.initial_potential

    @pytest.mark.parametrize("policy", FLIP_POLICIES)
    def test_all_policies_work(self, policy):
        problem = PROBLEMS["gnp"]
        orientation, stats = sequential_flip_algorithm(problem, policy=policy, seed=7)
        assert orientation.is_stable()
        assert stats.flips >= 0

    def test_potential_strictly_decreases(self):
        problem = PROBLEMS["star"]
        orientation, stats = sequential_flip_algorithm(problem, record_trace=True)
        trace = stats.potential_trace
        assert all(later < earlier for earlier, later in zip(trace, trace[1:]))
        assert orientation.is_stable()

    def test_star_flip_count(self):
        # All edges initially point at the centre (id 0 is the smaller
        # endpoint, so "towards max" orients them all outward-to-centre
        # depends on labels); just verify stability and a sane flip count.
        problem = PROBLEMS["star"]
        _, stats = sequential_flip_algorithm(problem)
        flips = stats.flips
        assert 0 <= flips <= problem.num_edges() ** 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            sequential_flip_algorithm(PROBLEMS["path"], policy="bogus")

    def test_incomplete_initial_rejected(self):
        from repro.core.orientation import Orientation

        problem = PROBLEMS["path"]
        with pytest.raises(ValueError):
            sequential_flip_algorithm(problem, initial=Orientation(problem))


class TestRepairBaseline:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_produces_stable_orientation(self, name):
        problem = PROBLEMS[name]
        orientation, stats = synchronous_repair_orientation(problem, seed=3)
        assert orientation.is_stable()
        assert stats.iterations >= 0
        assert stats.communication_rounds == stats.iterations * 3

    def test_accepts_explicit_initial(self):
        problem = PROBLEMS["regular"]
        initial = arbitrary_complete_orientation(problem, towards="max")
        orientation, _ = synchronous_repair_orientation(problem, initial=initial)
        assert orientation.is_stable()

    def test_incomplete_initial_rejected(self):
        from repro.core.orientation import Orientation

        problem = PROBLEMS["path"]
        with pytest.raises(ValueError):
            synchronous_repair_orientation(problem, initial=Orientation(problem))


class TestPhaseAlgorithm:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_produces_stable_orientation(self, name):
        problem = PROBLEMS[name]
        result = run_stable_orientation(problem)
        assert result.stable
        assert check_stable(result.orientation) == []

    @pytest.mark.parametrize("name", ["path", "cycle", "tree", "regular", "gnp"])
    def test_phase_and_round_bounds(self, name):
        problem = PROBLEMS[name]
        result = run_stable_orientation(problem)
        assert result.phases <= theoretical_phase_bound(problem)
        assert result.game_rounds <= theoretical_round_bound(problem)

    def test_badness_invariant_recorded_per_phase(self):
        problem = PROBLEMS["gnp"]
        result = run_stable_orientation(problem)
        assert all(stats.max_badness_after <= 1 for stats in result.per_phase)
        # Edge counts are monotone and end at m.
        oriented_counts = [stats.edges_oriented_total for stats in result.per_phase]
        assert oriented_counts == sorted(oriented_counts)
        assert oriented_counts[-1] == problem.num_edges()

    def test_token_dropping_height_bounded_by_delta(self):
        problem = PROBLEMS["regular"]
        result = run_stable_orientation(problem)
        delta = problem.max_degree()
        assert all(s.token_dropping_height <= delta for s in result.per_phase)

    def test_empty_graph_trivial(self):
        result = run_stable_orientation(PROBLEMS["empty"])
        assert result.phases == 0
        assert result.game_rounds == 0
        assert result.stable

    def test_same_cost_class_as_sequential(self):
        """Both algorithms find *some* stable orientation; loads need not match,
        but the sum of squared loads of any two stable orientations of the same
        graph are within a factor 4 (both are 2-approximations of the optimum)."""
        problem = PROBLEMS["caterpillar"]
        phase_result = run_stable_orientation(problem)
        seq_orientation, _ = sequential_flip_algorithm(problem)
        a = phase_result.orientation.semi_matching_cost()
        b = seq_orientation.semi_matching_cost()
        assert a <= 2 * b and b <= 2 * a

    @pytest.mark.parametrize("tie_break", ["min", "max", "random"])
    def test_tie_breaking_policies(self, tie_break):
        problem = PROBLEMS["gnp"]
        result = run_stable_orientation(problem, tie_break=tie_break, seed=5)
        assert result.stable

    @pytest.mark.parametrize("path", ["kernel", "dict"])
    def test_exceeding_the_phase_budget_is_an_error(self, path):
        problem = PROBLEMS["gnp"]
        assert run_stable_orientation(problem).phases >= 2
        with pytest.raises(AlgorithmError, match="phase budget of 1.*Lemma 5.5"):
            if path == "kernel":
                graph = CompactGraph.from_orientation_problem(problem)
                stable_orientation_kernel(graph, max_phases=1)
            else:
                run_stable_orientation_reference(problem, max_phases=1)


class TestPropertyBased:
    @given(
        n=st.integers(min_value=2, max_value=25),
        p=st.floats(min_value=0.05, max_value=0.5),
        max_degree=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_phase_algorithm_always_stable(self, n, p, max_degree, seed):
        graph = bounded_degree_gnp(n, p, max_degree, seed=seed)
        problem = OrientationProblem.from_networkx(graph)
        result = run_stable_orientation(problem)
        assert result.stable
        assert result.phases <= theoretical_phase_bound(problem)

    @given(
        n=st.integers(min_value=2, max_value=25),
        p=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_sequential_always_stable_and_potential_decreases(self, n, p, seed):
        graph = bounded_degree_gnp(n, p, max_degree=5, seed=seed)
        problem = OrientationProblem.from_networkx(graph)
        orientation, stats = sequential_flip_algorithm(
            problem, policy="random", seed=seed
        )
        assert orientation.is_stable()
        assert stats.final_potential <= stats.initial_potential

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_all_three_algorithms_agree_on_stability(self, seed):
        rng = random.Random(seed)
        graph = bounded_degree_gnp(18, 0.3, 5, seed=rng)
        problem = OrientationProblem.from_networkx(graph)
        r1 = run_stable_orientation(problem)
        o2, _ = sequential_flip_algorithm(problem, policy="random", seed=seed)
        o3, _ = synchronous_repair_orientation(problem, seed=seed)
        assert r1.stable and o2.is_stable() and o3.is_stable()


@pytest.mark.integration
class TestLemma61OnTrees:
    """Lemma 6.1: in any stable orientation of a perfect d-ary tree,
    indegree(v) ≤ h(v) + 1.  All our algorithms must satisfy it."""

    @pytest.mark.parametrize("algorithm", ["phases", "sequential", "repair"])
    def test_indegree_bounded_by_height(self, algorithm):
        import networkx as nx

        from repro.graphs.validation import tree_heights

        graph, _root = perfect_dary_tree(3, 3)
        problem = OrientationProblem.from_networkx(graph)
        if algorithm == "phases":
            orientation = run_stable_orientation(problem).orientation
        elif algorithm == "sequential":
            orientation, _ = sequential_flip_algorithm(problem)
        else:
            orientation, _ = synchronous_repair_orientation(problem, seed=1)
        heights = tree_heights(graph)
        for node in graph.nodes():
            assert orientation.load(node) <= heights[node] + 1

    def test_girth_does_not_matter_for_stability(self):
        graph = nx.complete_graph(6)
        problem = OrientationProblem.from_networkx(graph)
        result = run_stable_orientation(problem)
        assert result.stable
