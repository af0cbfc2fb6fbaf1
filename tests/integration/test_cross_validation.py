"""Cross-module integration tests.

These tests stitch several subsystems together the way the experiments do,
and cross-validate independent implementations against each other:

* distributed vs. centralized token dropping on identical instances;
* the graph engine vs. the hypergraph engine on rank-2 instances;
* the orientation phase algorithm vs. the assignment algorithm on the
  degree-2-customer translation of the same graph;
* measured round counts flowing through the sweep/fit analysis pipeline.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import fit_power_law, max_bound_ratio
from repro.core.assignment import run_stable_assignment
from repro.core.orientation import OrientationProblem, run_stable_orientation
from repro.core.token_dropping import (
    HypergraphTokenDroppingInstance,
    TokenDroppingInstance,
    exhaustive_is_stuck,
    greedy_token_dropping,
    random_token_placement,
    run_hypergraph_proposal,
    run_proposal_algorithm,
)
from repro.engine import ExperimentSpec, parameter_grid, run_experiment
from repro.graphs.bipartite import CustomerServerGraph
from repro.graphs.generators import bounded_degree_gnp, random_layered_graph
from repro.workloads import bounded_degree_token_dropping


pytestmark = pytest.mark.integration


class TestDistributedVsCentralized:
    @pytest.mark.parametrize("seed", range(5))
    def test_both_solve_same_instance_and_get_stuck(self, seed):
        rng = random.Random(seed)
        graph = random_layered_graph(5, 5, 0.5, seed=rng)
        tokens = random_token_placement(graph, 0.5, rng)
        instance = TokenDroppingInstance(graph, tokens)

        distributed = run_proposal_algorithm(instance)
        central = greedy_token_dropping(instance)

        for solution in (distributed, central):
            solution.validate(instance).raise_if_invalid()
            assert exhaustive_is_stuck(instance, solution)
            assert set(solution.traversals) == set(instance.tokens)

    @pytest.mark.parametrize("seed", range(5))
    def test_graph_and_hypergraph_engines_agree_on_rank2(self, seed):
        instance = bounded_degree_token_dropping(num_levels=5, degree=5, seed=seed)
        graph_solution = run_proposal_algorithm(instance)
        hyper = HypergraphTokenDroppingInstance.from_rank2_instance(instance)
        hyper_solution = run_hypergraph_proposal(hyper)

        graph_solution.validate(instance).raise_if_invalid()
        assert hyper_solution.validate(hyper) == []
        # Same number of surviving tokens with unique destinations, and the
        # same per-level occupancy profile is not required (solutions are not
        # unique) -- but total moves can differ by at most the number of
        # tokens times the height.
        assert len(hyper_solution.destinations) == len(graph_solution.destinations)


class TestOrientationVsAssignment:
    @pytest.mark.parametrize("seed", range(3))
    def test_degree2_customers_reproduce_orientation_semantics(self, seed):
        graph = bounded_degree_gnp(18, 0.3, 5, seed=seed)
        problem = OrientationProblem.from_networkx(graph)
        orientation_result = run_stable_orientation(problem)

        csg = CustomerServerGraph.from_orientation_graph(problem.edges)
        assignment_result = run_stable_assignment(csg)

        assert orientation_result.stable
        assert assignment_result.stable
        # The two solve the *same* problem; their load multisets agree up to
        # the inherent non-uniqueness of stable solutions, and both cost
        # functions are within a factor 4 of each other (each is a
        # 2-approximation of the common optimum).
        a = orientation_result.orientation.semi_matching_cost()
        b = assignment_result.assignment.semi_matching_cost()
        if a and b:
            assert a <= 2 * b and b <= 2 * a


class TestAnalysisPipeline:
    def test_sweep_fit_and_bound_check_on_real_algorithm(self):
        def measure(*, seed, delta):
            instance = bounded_degree_token_dropping(
                num_levels=4, degree=delta, seed=seed
            )
            solution = run_proposal_algorithm(instance)
            return {
                "game_rounds": solution.game_rounds,
                "bound": instance.theoretical_round_bound(),
            }

        result = run_experiment(
            ExperimentSpec(
                "e1-mini", measure, parameter_grid(delta=[2, 4, 6, 8]), seeds=(0, 1)
            )
        )
        xs, ys = result.series("delta", "game_rounds")
        fit = fit_power_law(xs, ys)
        # Theorem 4.1 allows quadratic growth; random instances are well below.
        assert fit.exponent <= 2.5
        _, bounds = result.series("delta", "bound")
        ratio = max_bound_ratio(xs, ys, bound=lambda x: bounds[xs.index(x)])
        assert ratio <= 1.0
