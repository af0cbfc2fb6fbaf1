"""Tests for the three-level algorithm, the greedy baseline, and the hypergraph game."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.token_dropping import (
    GREEDY_ORDERS,
    HypergraphTokenDroppingInstance,
    InvalidHypergraphInstanceError,
    TokenDroppingInstance,
    UnsupportedHeightError,
    exhaustive_is_stuck,
    greedy_token_dropping,
    random_token_placement,
    run_hypergraph_proposal,
    run_proposal_algorithm,
    run_three_level_algorithm,
    theoretical_three_level_bound,
)
from repro.graphs.generators import random_layered_graph
from repro.graphs.hypergraph import Hypergraph
from repro.graphs.layered import LayeredGraph


def three_level_instance(width: int, p: float, token_fraction: float, seed: int):
    rng = random.Random(seed)
    graph = random_layered_graph(3, width, p, seed=rng)
    tokens = random_token_placement(
        graph, token_fraction, rng, exclude_bottom_level=True
    )
    return TokenDroppingInstance(graph, tokens)


class TestThreeLevelAlgorithm:
    def test_rejects_tall_instances(self):
        graph = LayeredGraph(
            levels={"a": 0, "b": 1, "c": 2, "d": 3},
            edges=[("a", "b"), ("b", "c"), ("c", "d")],
        )
        with pytest.raises(UnsupportedHeightError):
            run_three_level_algorithm(TokenDroppingInstance(graph, tokens={"d"}))

    def test_single_chain(self):
        graph = LayeredGraph(
            levels={"a": 0, "b": 1, "c": 2}, edges=[("a", "b"), ("b", "c")]
        )
        instance = TokenDroppingInstance(graph, tokens={"c"})
        solution = run_three_level_algorithm(instance)
        solution.validate(instance).raise_if_invalid()
        assert solution.traversal_of("c").destination == "a"

    @pytest.mark.parametrize("seed", range(6))
    def test_random_three_level_instances(self, seed):
        instance = three_level_instance(width=5, p=0.5, token_fraction=0.6, seed=seed)
        solution = run_three_level_algorithm(instance)
        solution.validate(instance).raise_if_invalid()
        assert exhaustive_is_stuck(instance, solution)

    @pytest.mark.parametrize("seed", range(4))
    def test_linear_round_bound(self, seed):
        instance = three_level_instance(width=6, p=0.6, token_fraction=0.6, seed=seed)
        solution = run_three_level_algorithm(instance)
        assert solution.game_rounds <= theoretical_three_level_bound(instance)

    def test_agrees_with_generic_proposal_on_validity(self):
        instance = three_level_instance(width=5, p=0.5, token_fraction=0.5, seed=42)
        fast = run_three_level_algorithm(instance)
        generic = run_proposal_algorithm(instance)
        fast.validate(instance).raise_if_invalid()
        generic.validate(instance).raise_if_invalid()
        assert set(fast.traversals) == set(generic.traversals)

    @given(
        width=st.integers(min_value=1, max_value=5),
        p=st.floats(min_value=0.2, max_value=0.9),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_valid_outputs(self, width, p, seed):
        instance = three_level_instance(width, p, 0.5, seed)
        solution = run_three_level_algorithm(instance)
        report = solution.validate(instance)
        assert report.valid, report.violations


class TestGreedyBaseline:
    @pytest.mark.parametrize("order", GREEDY_ORDERS)
    def test_all_orders_produce_valid_solutions(self, order):
        rng = random.Random(3)
        graph = random_layered_graph(5, 4, 0.5, seed=rng)
        tokens = random_token_placement(graph, 0.5, rng)
        instance = TokenDroppingInstance(graph, tokens)
        solution = greedy_token_dropping(instance, order=order, seed=1)
        solution.validate(instance).raise_if_invalid()
        assert exhaustive_is_stuck(instance, solution)

    def test_unknown_order_rejected(self):
        graph = LayeredGraph(levels={"a": 0}, edges=[])
        instance = TokenDroppingInstance(graph, tokens=set())
        with pytest.raises(ValueError):
            greedy_token_dropping(instance, order="bogus")


class TestHypergraphGame:
    def small_instance(self) -> HypergraphTokenDroppingInstance:
        hg = Hypergraph(
            vertices=["a", "b", "c", "d"],
            hyperedges={"e1": ["a", "b"], "e2": ["b", "c"], "e3": ["b", "d"]},
        )
        levels = {"a": 0, "b": 1, "c": 2, "d": 2}
        heads = {"e1": "b", "e2": "c", "e3": "d"}
        return HypergraphTokenDroppingInstance(hg, levels, heads, tokens={"c", "d"})

    def test_instance_validation(self):
        hg = Hypergraph(vertices=["a", "b"], hyperedges={"e": ["a", "b"]})
        with pytest.raises(InvalidHypergraphInstanceError):
            # head level constraint violated (levels equal)
            HypergraphTokenDroppingInstance(
                hg, levels={"a": 1, "b": 1}, heads={"e": "b"}, tokens=set()
            )
        with pytest.raises(InvalidHypergraphInstanceError):
            # head not an endpoint
            HypergraphTokenDroppingInstance(
                hg, levels={"a": 0, "b": 1}, heads={"e": "zzz"}, tokens=set()
            )
        with pytest.raises(InvalidHypergraphInstanceError):
            # missing head
            HypergraphTokenDroppingInstance(
                hg, levels={"a": 0, "b": 1}, heads={}, tokens=set()
            )
        with pytest.raises(InvalidHypergraphInstanceError):
            # token on unknown vertex
            HypergraphTokenDroppingInstance(
                hg, levels={"a": 0, "b": 1}, heads={"e": "b"}, tokens={"zzz"}
            )

    def test_rank_one_hyperedge_rejected(self):
        hg = Hypergraph(vertices=["a"], hyperedges={"e": ["a"]})
        with pytest.raises(InvalidHypergraphInstanceError):
            HypergraphTokenDroppingInstance(
                hg, levels={"a": 0}, heads={"e": "a"}, tokens=set()
            )

    def test_small_instance_solved(self):
        instance = self.small_instance()
        solution = run_hypergraph_proposal(instance)
        assert solution.validate(instance) == []
        # Token from c or d reaches b, then one continues to a.
        assert "a" in solution.destinations

    def test_parent_child_queries(self):
        instance = self.small_instance()
        assert instance.children_in_edge("b", "e1") == ("a",)
        assert instance.children_in_edge("a", "e1") == ()
        assert instance.parent_in_edge("a", "e1") == "b"
        assert instance.parent_in_edge("b", "e1") is None
        assert instance.height == 2
        assert instance.max_rank == 2
        assert instance.max_vertex_degree == 3

    def test_round_bound(self):
        instance = self.small_instance()
        solution = run_hypergraph_proposal(instance)
        assert solution.game_rounds <= instance.theoretical_round_bound()

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_rank2_engine(self, seed):
        """The hypergraph engine on a rank-2 view also gets a valid, stuck solution."""
        rng = random.Random(seed)
        graph = random_layered_graph(4, 4, 0.5, seed=rng)
        tokens = random_token_placement(graph, 0.5, rng)
        instance = TokenDroppingInstance(graph, tokens)
        hyper = HypergraphTokenDroppingInstance.from_rank2_instance(instance)
        solution = run_hypergraph_proposal(hyper)
        assert solution.validate(hyper) == []
        # Same number of tokens survive with unique destinations.
        assert len(solution.destinations) == len(instance.tokens)

    def test_rank3_hyperedges(self):
        hg = Hypergraph(
            vertices=["a", "b", "c", "x"],
            hyperedges={"e1": ["x", "a", "b"], "e2": ["x", "c"]},
        )
        levels = {"a": 0, "b": 0, "x": 1, "c": 0}
        heads = {"e1": "x", "e2": "x"}
        instance = HypergraphTokenDroppingInstance(hg, levels, heads, tokens={"x"})
        solution = run_hypergraph_proposal(instance)
        assert solution.validate(instance) == []
        # The token moved down to one of x's children.
        destination = solution.traversals["x"].destination
        assert destination in {"a", "b", "c"}

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_property_hypergraph_rules_hold(self, seed):
        rng = random.Random(seed)
        graph = random_layered_graph(4, 3, 0.6, seed=rng)
        tokens = random_token_placement(graph, 0.5, rng)
        instance = TokenDroppingInstance(graph, tokens)
        hyper = HypergraphTokenDroppingInstance.from_rank2_instance(instance)
        solution = run_hypergraph_proposal(hyper)
        assert solution.validate(hyper) == []
