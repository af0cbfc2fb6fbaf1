"""Tests for the 0–1–many (k-bounded) stable orientation relaxation (Section 1.4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orientation import (
    OrientationProblem,
    bounded_unhappy_edges,
    run_bounded_stable_orientation,
    run_stable_orientation,
)
from repro.core.orientation.problem import Orientation
from repro.graphs.generators import bounded_degree_gnp, perfect_dary_tree, star_graph


class TestBoundedUnhappiness:
    def test_zero_load_neighbor_makes_edge_unhappy(self):
        problem = OrientationProblem(edges=[(1, 2), (2, 3)])
        orientation = Orientation(problem)
        orientation.orient(1, 2, head=2)
        orientation.orient(2, 3, head=2)
        # Node 2 has load 2, node 1 and 3 have load 0 -> both edges 0-1-many unhappy.
        assert len(bounded_unhappy_edges(orientation, k=2)) == 2

    def test_relaxation_is_strictly_weaker_than_full_stability(self):
        # A hub of load 3 whose edge-tails all have load 1: ordinarily
        # unhappy (badness 2) but 0-1-many happy, because no tail sees a
        # load-0 alternative.
        problem = OrientationProblem(
            edges=[
                ("c", "a"),
                ("c", "b"),
                ("c", "d"),
                ("a", "x"),
                ("b", "y"),
                ("d", "z"),
            ]
        )
        orientation = Orientation(problem)
        for tail in ("a", "b", "d"):
            orientation.orient("c", tail, head="c")
        orientation.orient("a", "x", head="a")
        orientation.orient("b", "y", head="b")
        orientation.orient("d", "z", head="d")
        assert orientation.load("c") == 3
        assert orientation.unhappy_edges()  # ordinary stability violated
        assert bounded_unhappy_edges(orientation, k=2) == []  # relaxation satisfied


class TestBoundedOrientationAlgorithm:
    @pytest.mark.parametrize("maker", [
        lambda: OrientationProblem(edges=[(1, 2), (2, 3), (1, 3), (3, 4)]),
        lambda: OrientationProblem.from_networkx(star_graph(6)),
        lambda: OrientationProblem.from_networkx(perfect_dary_tree(3, 2)[0]),
        lambda: OrientationProblem.from_networkx(
            bounded_degree_gnp(25, 0.25, 5, seed=3)
        ),
    ])
    def test_produces_bounded_stable_orientation(self, maker):
        problem = maker()
        result = run_bounded_stable_orientation(problem, seed=1)
        assert result.orientation.is_complete()
        assert result.stable
        assert bounded_unhappy_edges(result.orientation, k=result.k) == []

    def test_empty_problem(self):
        problem = OrientationProblem(edges=[], nodes=[1, 2])
        result = run_bounded_stable_orientation(problem)
        assert result.stable
        assert result.phases == 0
        assert result.assignment_result is None

    def test_invalid_k_rejected(self):
        problem = OrientationProblem(edges=[(1, 2)])
        with pytest.raises(ValueError):
            run_bounded_stable_orientation(problem, k=1)

    def test_round_budget_respected(self):
        problem = OrientationProblem.from_networkx(
            bounded_degree_gnp(30, 0.3, 6, seed=5)
        )
        result = run_bounded_stable_orientation(problem, seed=2)
        # Theorem 7.5's O(C·S²) rounds per phase with C = 2 and S = Δ,
        # over O(Δ) phases: O(Δ³) overall (Section 1.4).
        delta = problem.max_degree() + 1
        assert result.game_rounds <= 16 * delta**3 + 16

    def test_full_stability_implies_bounded_stability(self):
        problem = OrientationProblem.from_networkx(
            bounded_degree_gnp(20, 0.3, 5, seed=9)
        )
        full = run_stable_orientation(problem)
        assert bounded_unhappy_edges(full.orientation, k=2) == []

    @given(
        n=st.integers(min_value=2, max_value=20),
        p=st.floats(min_value=0.1, max_value=0.5),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_always_bounded_stable(self, n, p, seed):
        problem = OrientationProblem.from_networkx(
            bounded_degree_gnp(n, p, 5, seed=seed)
        )
        result = run_bounded_stable_orientation(problem, seed=seed)
        assert result.stable
