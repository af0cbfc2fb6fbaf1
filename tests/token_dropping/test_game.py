"""Unit tests for token dropping instances (game.py) and traversals."""

from __future__ import annotations

import random

import pytest

from repro.core.token_dropping import (
    InvalidInstanceError,
    InvalidSolutionError,
    TokenDroppingInstance,
    Traversal,
    figure2_instance,
    random_token_placement,
    solution_from_paths,
)
from repro.core.token_dropping.game import (
    LOCAL_CHILDREN,
    LOCAL_HAS_TOKEN,
    LOCAL_LEVEL,
    LOCAL_PARENTS,
    proposal_round_budget,
)
from repro.core.token_dropping.proposal import run_proposal_algorithm
from repro.graphs.layered import LayeredGraph
from repro.workloads.scenarios import random_token_dropping


@pytest.fixture
def chain_graph() -> LayeredGraph:
    """A simple chain a(0) <- b(1) <- c(2)."""
    return LayeredGraph(
        levels={"a": 0, "b": 1, "c": 2}, edges=[("a", "b"), ("b", "c")]
    )


class TestInstance:
    def test_basic_properties(self, chain_graph: LayeredGraph):
        instance = TokenDroppingInstance(chain_graph, tokens={"c"})
        assert instance.height == 2
        assert instance.max_degree == 2
        assert instance.num_tokens == 1
        assert instance.has_token("c")
        assert not instance.has_token("a")

    def test_tokens_on_unknown_node_rejected(self, chain_graph: LayeredGraph):
        with pytest.raises(InvalidInstanceError):
            TokenDroppingInstance(chain_graph, tokens={"zzz"})

    def test_theoretical_round_bound_positive(self, chain_graph: LayeredGraph):
        instance = TokenDroppingInstance(chain_graph, tokens=set())
        assert instance.theoretical_round_bound() > 0

    def test_theoretical_round_bound_is_the_budget(self, chain_graph: LayeredGraph):
        instance = TokenDroppingInstance(chain_graph, tokens=set())
        # L = 2, Δ = 2: c·(L+1)·(Δ+1)² + c.
        assert instance.theoretical_round_bound() == 8 * 3 * 9 + 8
        assert instance.theoretical_round_bound(2) == proposal_round_budget(2, 2, 2)

    def test_second_run_recomputes_no_degree(self, monkeypatch):
        instance = random_token_dropping(num_levels=5, width=20, seed=1)
        first = run_proposal_algorithm(instance)
        calls = []
        degree = LayeredGraph.degree

        def counting_degree(graph, node):
            calls.append(node)
            return degree(graph, node)

        monkeypatch.setattr(LayeredGraph, "degree", counting_degree)
        assert run_proposal_algorithm(instance) == first
        assert calls == []

    def test_to_network_local_inputs(self, chain_graph: LayeredGraph):
        instance = TokenDroppingInstance(chain_graph, tokens={"b"})
        network = instance.to_network()
        local_b = network.local_input("b")
        assert local_b[LOCAL_HAS_TOKEN] is True
        assert local_b[LOCAL_PARENTS] == frozenset({"c"})
        assert local_b[LOCAL_CHILDREN] == frozenset({"a"})
        assert LOCAL_LEVEL not in local_b

    def test_to_network_with_levels(self, chain_graph: LayeredGraph):
        instance = TokenDroppingInstance(chain_graph, tokens=set())
        network = instance.to_network(include_levels=True)
        assert network.local_input("c")[LOCAL_LEVEL] == 2

    def test_describe_mentions_parameters(self, chain_graph: LayeredGraph):
        instance = TokenDroppingInstance(chain_graph, tokens={"c"})
        text = instance.describe()
        assert "L=2" in text and "tokens" in text

    def test_figure2_instance_valid(self):
        instance = figure2_instance()
        assert instance.height == 4
        assert instance.num_tokens == 8
        # Every token sits on a node of the graph by construction.
        assert all(node in instance.graph.levels for node in instance.tokens)

    def test_random_token_placement(self, chain_graph: LayeredGraph):
        rng = random.Random(1)
        tokens = random_token_placement(chain_graph, 1.0, rng)
        assert tokens == frozenset({"a", "b", "c"})
        none = random_token_placement(chain_graph, 0.0, rng)
        assert none == frozenset()

    def test_random_token_placement_excluding_bottom(self, chain_graph: LayeredGraph):
        rng = random.Random(1)
        tokens = random_token_placement(
            chain_graph, 1.0, rng, exclude_bottom_level=True
        )
        assert "a" not in tokens

    def test_random_token_placement_fraction_validated(self, chain_graph: LayeredGraph):
        with pytest.raises(ValueError):
            random_token_placement(chain_graph, 1.5, random.Random(0))


class TestTraversal:
    def test_traversal_properties(self):
        t = Traversal("c", ["c", "b", "a"])
        assert t.source == "c"
        assert t.destination == "a"
        assert t.length == 2
        assert t.edges_used() == (("b", "c"), ("a", "b"))
        assert list(t) == ["c", "b", "a"]

    def test_stationary_traversal(self):
        t = Traversal("c", ["c"])
        assert t.length == 0
        assert t.edges_used() == ()

    def test_empty_path_rejected(self):
        with pytest.raises(InvalidSolutionError):
            Traversal("c", [])

    def test_mismatched_start_rejected(self):
        with pytest.raises(InvalidSolutionError):
            Traversal("c", ["b", "a"])


class TestSolutionValidation:
    def test_valid_solution(self, chain_graph: LayeredGraph):
        instance = TokenDroppingInstance(chain_graph, tokens={"c"})
        solution = solution_from_paths({"c": ["c", "b", "a"]})
        report = solution.validate(instance)
        assert report.valid, report.violations

    def test_non_maximal_solution_detected(self, chain_graph: LayeredGraph):
        instance = TokenDroppingInstance(chain_graph, tokens={"c"})
        # Token stops at b although a is unoccupied and edge (a, b) unused.
        solution = solution_from_paths({"c": ["c", "b"]})
        report = solution.validate(instance)
        assert not report.valid
        assert any("maximal" in v for v in report.violations)
        with pytest.raises(InvalidSolutionError):
            report.raise_if_invalid()

    def test_missing_traversal_detected(self, chain_graph: LayeredGraph):
        instance = TokenDroppingInstance(chain_graph, tokens={"c", "b"})
        solution = solution_from_paths({"c": ["c"]})
        report = solution.validate(instance)
        assert not report.valid
        assert any("missing" in v for v in report.violations)

    def test_duplicate_destination_detected(self):
        graph = LayeredGraph(
            levels={"x": 0, "p": 1, "q": 1},
            edges=[("x", "p"), ("x", "q")],
        )
        instance = TokenDroppingInstance(graph, tokens={"p", "q"})
        solution = solution_from_paths({"p": ["p", "x"], "q": ["q", "x"]})
        report = solution.validate(instance)
        assert not report.valid
        assert any("share destination" in v for v in report.violations)

    def test_edge_reuse_detected(self):
        graph = LayeredGraph(
            levels={"a": 0, "b": 1, "c": 2, "d": 2},
            edges=[("a", "b"), ("b", "c"), ("b", "d")],
        )
        instance = TokenDroppingInstance(graph, tokens={"c", "d"})
        # Both tokens claim to use edge (a, b).
        solution = solution_from_paths({"c": ["c", "b", "a"], "d": ["d", "b", "a"]})
        report = solution.validate(instance)
        assert not report.valid
        # Edge reuse *and* duplicate destination are both reported.
        assert any("used by" in v for v in report.violations)

    def test_non_edge_step_detected(self, chain_graph: LayeredGraph):
        instance = TokenDroppingInstance(chain_graph, tokens={"c"})
        solution = solution_from_paths({"c": ["c", "a"]})
        report = solution.validate(instance)
        assert not report.valid
        assert any("non-edge" in v for v in report.violations)

    def test_consumed_edges_and_moves(self, chain_graph: LayeredGraph):
        instance = TokenDroppingInstance(chain_graph, tokens={"c"})
        solution = solution_from_paths({"c": ["c", "b", "a"]})
        assert solution.consumed_edges() == frozenset({("b", "c"), ("a", "b")})
        assert solution.total_moves() == 2
        assert solution.destinations == frozenset({"a"})
        assert solution.traversal_of("c").destination == "a"
        del instance


class TestTails:
    def test_tail_without_history_is_destination_only(self):
        solution = solution_from_paths({"c": ["c", "b"]})
        assert solution.tail_of("c") == ("b",)
        assert solution.extended_traversal("c") == ("c", "b")

    def test_tail_follows_last_pass(self):
        # Token c travels c -> b; node b later passed another token to a,
        # so the tail of c's traversal extends through b's last pass.
        from repro.core.token_dropping import TokenDroppingSolution

        traversals = {
            "c": Traversal("c", ["c", "b"]),
            "d": Traversal("d", ["d", "b2", "a"]),
        }
        pass_history = {
            "c": ((("c"), "b"),),
            "b": (),
            "b2": ((("d"), "a"),),
        }
        solution = TokenDroppingSolution(
            traversals=traversals, pass_history=pass_history
        )
        # Destination of d is a; a never passed anything: tail is just (a,).
        assert solution.tail_of("d") == ("a",)
        # Destination of c is b with empty history: tail (b,).
        assert solution.tail_of("c") == ("b",)
