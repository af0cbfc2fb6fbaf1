"""Tests for the lower-bound constructions and indistinguishability checks."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.core.assignment import verify_maximal_matching
from repro.core.orientation import (
    arbitrary_complete_orientation,
    run_stable_orientation,
    sequential_flip_algorithm,
)
from repro.core.orientation.problem import OrientationProblem
from repro.core.token_dropping import run_proposal_algorithm, run_three_level_algorithm
from repro.graphs.generators import perfect_dary_tree, random_bipartite_customer_server
from repro.graphs.validation import (
    check_girth_at_least,
    check_perfect_dary_tree,
    is_regular,
)
from repro.lower_bounds import (
    height2_matching_instance,
    lemma61_violations,
    lemma62_witness,
    matching_from_height2_solution,
    radius_t_view,
    theorem63_instance_pair,
    views_isomorphic,
)


class TestTheorem46Reduction:
    @pytest.mark.parametrize("seed", range(4))
    def test_height2_solution_is_maximal_matching(self, seed):
        graph = random_bipartite_customer_server(12, 12, 3, seed=seed)
        instance = height2_matching_instance(graph)
        assert instance.height == 1
        solution = run_proposal_algorithm(instance)
        solution.validate(instance).raise_if_invalid()
        matching = matching_from_height2_solution(graph, solution)
        assert verify_maximal_matching(graph, matching) == []

    def test_three_level_algorithm_also_solves_reduction(self):
        graph = random_bipartite_customer_server(10, 10, 3, seed=7)
        instance = height2_matching_instance(graph)
        solution = run_three_level_algorithm(instance)
        matching = matching_from_height2_solution(graph, solution)
        assert verify_maximal_matching(graph, matching) == []

    def test_tokens_sit_on_customer_side(self):
        graph = random_bipartite_customer_server(5, 4, 2, seed=1)
        instance = height2_matching_instance(graph)
        assert instance.num_tokens == 5
        assert all(node[0] == "U" for node in instance.tokens)


class TestTheorem63Constructions:
    def test_instance_pair_premises(self):
        regular, tree, root = theorem63_instance_pair(3, seed=1)
        assert is_regular(regular, 3)
        check_girth_at_least(regular, 4)
        depth = check_perfect_dary_tree(tree, 3, root)
        assert depth >= 1

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            theorem63_instance_pair(2)

    def test_lemma61_holds_for_stable_orientations(self):
        tree, _root = perfect_dary_tree(3, 3)
        problem = OrientationProblem.from_networkx(tree)
        result = run_stable_orientation(problem)
        assert lemma61_violations(tree, result.orientation) == []

    def test_lemma61_detects_violation_on_unstable_orientation(self):
        tree, root = perfect_dary_tree(3, 2)
        problem = OrientationProblem.from_networkx(tree)
        # Orient every edge towards the root: the root's load is 3 > h+1 is
        # false (h(root)=2 so 3 <= 3); push one level deeper instead -- an
        # internal node with all edges inward has load 3 > h+1 = 2.
        orientation = arbitrary_complete_orientation(problem, towards="max")
        internal = next(
            n
            for n in tree.nodes()
            if n != root and tree.degree(n) == 3
        )
        for neighbor in tree.neighbors(internal):
            orientation.orient(internal, neighbor, head=internal)
        violations = lemma61_violations(tree, orientation)
        assert any(node == internal for node, _, _ in violations)

    @pytest.mark.parametrize("degree", [3, 4, 5])
    def test_lemma62_witness_exists(self, degree):
        regular, _, _ = theorem63_instance_pair(degree, seed=2)
        problem = OrientationProblem.from_networkx(regular)
        orientation, _ = sequential_flip_algorithm(problem)
        witness = lemma62_witness(orientation, degree)
        assert witness is not None
        assert orientation.load(witness) >= math.ceil(degree / 2)


class TestIndistinguishability:
    def test_radius_zero_view(self):
        graph = nx.path_graph(5)
        view = radius_t_view(graph, 2, 0)
        assert view.number_of_nodes() == 1
        assert view.nodes[2]["is_root"]

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            radius_t_view(nx.path_graph(3), 0, -1)

    def test_views_isomorphic_within_tree_interior(self):
        # Two interior nodes of a long path have isomorphic radius-1 views.
        graph = nx.path_graph(10)
        assert views_isomorphic(graph, 4, graph, 5, 1)
        # An endpoint's view differs from an interior node's view.
        assert not views_isomorphic(graph, 0, graph, 5, 1)

    def test_regular_graph_locally_looks_like_tree(self):
        """The heart of Theorem 6.3: for small t the views in the high-girth
        regular graph and in the interior of the deep Δ-ary tree agree."""
        regular, tree, root = theorem63_instance_pair(3, seed=3)
        # Pick a tree node far from both the root and the leaves.
        depths = nx.single_source_shortest_path_length(tree, root)
        interior = next(
            n
            for n, d in depths.items()
            if d == 2 and tree.degree(n) == 3
        )
        some_regular_node = next(iter(regular.nodes()))
        assert views_isomorphic(regular, some_regular_node, tree, interior, 1)
