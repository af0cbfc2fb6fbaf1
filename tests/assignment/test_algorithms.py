"""Tests for the stable assignment algorithms (Theorems 7.3, 7.4, 7.5)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import (
    approximation_ratio,
    is_two_approximation,
    maximal_matching_via_bounded_assignment,
    optimal_cost,
    run_bounded_stable_assignment,
    run_stable_assignment,
    theoretical_phase_bound,
    theoretical_round_bound,
    verify_maximal_matching,
)
from repro.graphs.bipartite import CustomerServerGraph
from repro.graphs.generators import (
    complete_bipartite,
    random_bipartite_customer_server,
)


def is_bounded_stable(assignment, k=2):
    """The k-bounded stability condition, checked from its definition.

    Independent of :meth:`Assignment.is_stable`: a customer is unhappy iff
    it chose a server with load ``ℓ`` but has a neighbour of load at most
    ``min(k, ℓ) − 2``.  Cross-validates the effective-load formulation.
    """
    graph = assignment.graph
    if not assignment.is_complete():
        return False
    for customer in graph.customers:
        server = assignment.server_of(customer)
        threshold = min(k, assignment.load(server)) - 2
        for other in graph.servers_of(customer):
            if other != server and assignment.load(other) <= threshold:
                return False
    return True


def workloads():
    return {
        "small": CustomerServerGraph(
            customers=["c1", "c2", "c3"],
            servers=["s1", "s2"],
            edges=[
                ("c1", "s1"),
                ("c1", "s2"),
                ("c2", "s1"),
                ("c2", "s2"),
                ("c3", "s1"),
            ],
        ),
        "complete": complete_bipartite(8, 3),
        "uniform": random_bipartite_customer_server(25, 10, 3, seed=1),
        "skewed": random_bipartite_customer_server(30, 8, 2, seed=2, server_skew=2.0),
        "degree1": CustomerServerGraph(
            customers=["a", "b"],
            servers=["s"],
            edges=[("a", "s"), ("b", "s")],
        ),
        "orientation_like": CustomerServerGraph.from_orientation_graph(
            [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]
        ),
    }


WORKLOADS = workloads()


class TestStableAssignment:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_output_is_stable(self, name):
        graph = WORKLOADS[name]
        result = run_stable_assignment(graph)
        assert result.stable
        assert result.assignment.is_complete()

    @pytest.mark.parametrize("name", ["uniform", "skewed", "complete"])
    def test_phase_and_round_bounds(self, name):
        graph = WORKLOADS[name]
        result = run_stable_assignment(graph)
        assert result.phases <= theoretical_phase_bound(graph)
        assert result.game_rounds <= theoretical_round_bound(graph)

    def test_badness_invariant_per_phase(self):
        graph = WORKLOADS["skewed"]
        result = run_stable_assignment(graph)
        assert all(stats.max_badness_after <= 1 for stats in result.per_phase)
        assigned_counts = [s.customers_assigned_total for s in result.per_phase]
        assert assigned_counts == sorted(assigned_counts)
        assert assigned_counts[-1] == len(graph.customers)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            run_stable_assignment(WORKLOADS["small"], k=1)

    @pytest.mark.parametrize("tie_break", ["min", "max", "random"])
    def test_tie_break_policies(self, tie_break):
        graph = WORKLOADS["uniform"]
        result = run_stable_assignment(graph, tie_break=tie_break, seed=3)
        assert result.stable

    def test_two_approximation_of_semi_matching(self):
        for name in ("small", "uniform", "skewed", "complete"):
            graph = WORKLOADS[name]
            result = run_stable_assignment(graph)
            optimum = optimal_cost(graph)
            assert is_two_approximation(result.assignment, optimum), (
                name,
                approximation_ratio(result.assignment, optimum),
            )

    def test_matches_orientation_special_case(self):
        """Degree-2 customers = stable orientation; loads must satisfy the
        same stability condition the orientation checker uses."""
        graph = WORKLOADS["orientation_like"]
        result = run_stable_assignment(graph)
        assert result.stable
        assert all(graph.customer_degree(c) == 2 for c in graph.customers)


class TestBoundedAssignment:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_output_is_bounded_stable(self, name):
        graph = WORKLOADS[name]
        result = run_bounded_stable_assignment(graph, k=2)
        assert result.stable
        assert is_bounded_stable(result.assignment, k=2)

    def test_bounded_never_slower_budget(self):
        graph = WORKLOADS["skewed"]
        bounded = run_bounded_stable_assignment(graph, k=2)
        # The relaxation's instances have at most 3 levels.
        assert all(s.token_dropping_height <= 2 for s in bounded.per_phase)

    def test_k_three_also_works(self):
        graph = WORKLOADS["uniform"]
        result = run_bounded_stable_assignment(graph, k=3)
        assert result.stable
        assert is_bounded_stable(result.assignment, k=3)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            run_bounded_stable_assignment(WORKLOADS["small"], k=1)

    def test_full_stability_implies_bounded_stability(self):
        graph = WORKLOADS["uniform"]
        full = run_stable_assignment(graph)
        assert is_bounded_stable(full.assignment, k=2)


class TestMaximalMatchingReduction:
    @pytest.mark.parametrize("name", ["small", "uniform", "complete", "degree1"])
    def test_reduction_produces_maximal_matching(self, name):
        graph = WORKLOADS[name]
        matching, result = maximal_matching_via_bounded_assignment(graph, seed=0)
        assert result.stable
        assert verify_maximal_matching(graph, matching) == []

    def test_verify_detects_non_maximal(self):
        graph = WORKLOADS["small"]
        assert verify_maximal_matching(graph, set()) != []

    def test_verify_detects_double_matching(self):
        graph = WORKLOADS["small"]
        bad = {("c1", "s1"), ("c2", "s1")}
        assert any("matched twice" in v for v in verify_maximal_matching(graph, bad))

    def test_verify_detects_non_edge(self):
        graph = WORKLOADS["small"]
        bad = {("c3", "s2")}
        assert any("not an edge" in v for v in verify_maximal_matching(graph, bad))


class TestPropertyBased:
    @given(
        num_customers=st.integers(min_value=1, max_value=25),
        num_servers=st.integers(min_value=1, max_value=10),
        degree=st.integers(min_value=1, max_value=4),
        skew=st.floats(min_value=0.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_stable_assignment_always_stable_and_2approx(
        self, num_customers, num_servers, degree, skew, seed
    ):
        degree = min(degree, num_servers)
        graph = random_bipartite_customer_server(
            num_customers, num_servers, degree, seed=seed, server_skew=skew
        )
        result = run_stable_assignment(graph)
        assert result.stable
        assert is_two_approximation(result.assignment)

    @given(
        num_customers=st.integers(min_value=1, max_value=25),
        num_servers=st.integers(min_value=1, max_value=10),
        degree=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_bounded_assignment_always_bounded_stable(
        self, num_customers, num_servers, degree, seed
    ):
        degree = min(degree, num_servers)
        graph = random_bipartite_customer_server(
            num_customers, num_servers, degree, seed=seed
        )
        result = run_bounded_stable_assignment(graph, k=2)
        assert result.stable
        assert is_bounded_stable(result.assignment, k=2)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_maximal_matching_reduction_property(self, seed):
        graph = random_bipartite_customer_server(15, 15, 3, seed=seed)
        matching, _ = maximal_matching_via_bounded_assignment(graph, seed=seed)
        assert verify_maximal_matching(graph, matching) == []
