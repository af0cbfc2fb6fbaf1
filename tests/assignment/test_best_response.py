"""Tests for best-response dynamics and its compact fast path."""

from __future__ import annotations

import pytest

from repro.core.assignment import (
    Assignment,
    best_response_dynamics,
    greedy_assignment,
    is_two_approximation,
)
from repro.dispatch import BackendError
from repro.graphs.bipartite import CustomerServerGraph
from repro.workloads import datacenter_assignment, uniform_assignment


@pytest.fixture
def skewed_graph() -> CustomerServerGraph:
    return datacenter_assignment(num_jobs=60, num_servers=12, replicas=3, seed=5)


class TestBestResponseDynamics:
    def test_reaches_a_stable_assignment(self, skewed_graph):
        assignment, stats = best_response_dynamics(skewed_graph)
        assert assignment.is_complete()
        assert assignment.is_stable()
        assert stats.final_potential <= stats.initial_potential - 2 * stats.moves

    def test_stable_result_is_a_two_approximation(self, skewed_graph):
        assignment, _ = best_response_dynamics(skewed_graph)
        assert is_two_approximation(assignment)

    def test_improves_on_greedy_under_skew(self):
        graph = datacenter_assignment(
            num_jobs=120, num_servers=20, replicas=3, popularity_skew=1.5, seed=2
        )
        stable, _ = best_response_dynamics(graph)
        greedy = greedy_assignment(graph, order="random", seed=2)
        assert stable.semi_matching_cost() <= greedy.semi_matching_cost()

    def test_random_policy_also_stabilises(self, skewed_graph):
        assignment, stats = best_response_dynamics(
            skewed_graph, policy="random", seed=3
        )
        assert assignment.is_stable()
        assert stats.moves >= 0

    def test_accepts_an_explicit_initial_assignment(self, skewed_graph):
        initial = greedy_assignment(skewed_graph, order="random", seed=11)
        assignment, stats = best_response_dynamics(skewed_graph, initial=initial)
        assert assignment.is_stable()
        # The caller's assignment is not mutated.
        assert initial.choices() != {} and initial is not assignment

    def test_rejects_incomplete_initial(self, skewed_graph):
        with pytest.raises(ValueError):
            best_response_dynamics(skewed_graph, initial=Assignment(skewed_graph))

    def test_rejects_unknown_policy(self, skewed_graph):
        with pytest.raises(ValueError):
            best_response_dynamics(skewed_graph, policy="steepest")

    def test_zero_moves_when_already_stable(self):
        graph = uniform_assignment(num_jobs=4, num_servers=4, replicas=1, seed=0)
        assignment, stats = best_response_dynamics(graph)
        assert stats.moves == 0
        assert stats.initial_potential == stats.final_potential


class TestBackendDispatch:
    @pytest.mark.parametrize("policy", ["first", "random"])
    def test_backends_agree_exactly(self, skewed_graph, policy):
        ref, ref_stats = best_response_dynamics(
            skewed_graph, policy=policy, seed=7, backend="dict"
        )
        fast, fast_stats = best_response_dynamics(
            skewed_graph, policy=policy, seed=7, backend="compact"
        )
        assert ref.choices() == fast.choices()
        assert ref.loads() == fast.loads()
        assert ref_stats == fast_stats

    def test_compact_instance_input(self):
        compact = datacenter_assignment(
            num_jobs=60, num_servers=12, replicas=3, seed=5, compact=True
        )
        reference = datacenter_assignment(
            num_jobs=60, num_servers=12, replicas=3, seed=5
        )
        from_compact, s1 = best_response_dynamics(compact)
        from_reference, s2 = best_response_dynamics(reference)
        assert from_compact.choices() == from_reference.choices()
        assert s1 == s2

    def test_greedy_backends_agree(self, skewed_graph):
        ref = greedy_assignment(skewed_graph, order="sorted", backend="dict")
        fast = greedy_assignment(skewed_graph, order="sorted", backend="compact")
        assert ref.choices() == fast.choices()

    def test_unknown_backend_rejected(self, skewed_graph):
        with pytest.raises(BackendError):
            best_response_dynamics(skewed_graph, backend="numpy")
