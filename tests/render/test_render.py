"""Tests for the ASCII and DOT renderers."""

from __future__ import annotations

from repro.core.assignment import Assignment
from repro.core.orientation import Orientation, OrientationProblem
from repro.core.token_dropping import figure2_instance, run_proposal_algorithm
from repro.graphs.bipartite import CustomerServerGraph
from repro.render import (
    orientation_to_dot,
    render_assignment,
    render_layered_game,
    render_orientation,
    render_traversals,
    token_dropping_to_dot,
)


class TestAsciiRendering:
    def test_render_layered_game_marks_tokens(self):
        instance = figure2_instance()
        text = render_layered_game(instance)
        assert "level  4" in text
        assert "[*]" in text and "[ ]" in text
        # Exactly as many occupied markers as tokens.
        assert text.count("[*]") == instance.num_tokens

    def test_render_layered_game_with_custom_occupancy(self):
        instance = figure2_instance()
        text = render_layered_game(instance, occupied=[])
        assert "[*]" not in text

    def test_render_traversals_with_and_without_tails(self):
        instance = figure2_instance()
        solution = run_proposal_algorithm(instance)
        plain = render_traversals(solution)
        assert plain.count("token") == instance.num_tokens
        with_tails = render_traversals(solution, include_tails=True)
        assert len(with_tails) >= len(plain)

    def test_render_traversals_empty(self):
        from repro.core.token_dropping import solution_from_paths

        assert "no tokens" in render_traversals(solution_from_paths({}))

    def test_render_orientation(self):
        problem = OrientationProblem(edges=[(1, 2), (2, 3)])
        orientation = Orientation(problem)
        orientation.orient(1, 2, head=2)
        orientation.orient(2, 3, head=2)
        text = render_orientation(orientation)
        assert "UNHAPPY" in text
        assert "loads:" in text

    def test_render_orientation_shows_unoriented(self):
        problem = OrientationProblem(edges=[(1, 2)])
        text = render_orientation(Orientation(problem))
        assert "unoriented" in text

    def test_render_assignment_and_truncation(self):
        graph = CustomerServerGraph(
            customers=[f"c{i}" for i in range(10)],
            servers=["s0", "s1"],
            edges=[(f"c{i}", "s0") for i in range(10)]
            + [(f"c{i}", "s1") for i in range(10)],
        )
        assignment = Assignment(graph, choices={f"c{i}": "s0" for i in range(10)})
        text = render_assignment(assignment, max_rows=3)
        assert "more customers" in text
        assert "histogram" in text


class TestDotExport:
    def test_token_dropping_dot_structure(self):
        instance = figure2_instance()
        solution = run_proposal_algorithm(instance)
        dot = token_dropping_to_dot(instance, solution)
        assert dot.startswith("digraph token_dropping {")
        assert dot.rstrip().endswith("}")
        assert "rank=same" in dot
        # Consumed edges are highlighted.
        assert "color=orange" in dot
        assert "doublecircle" in dot

    def test_token_dropping_dot_without_solution(self):
        dot = token_dropping_to_dot(figure2_instance())
        assert "color=orange" not in dot
        assert "fillcolor=gray80" in dot

    def test_orientation_dot(self):
        problem = OrientationProblem(edges=[(1, 2), (2, 3), (1, 3)])
        orientation = Orientation(problem)
        orientation.orient(1, 2, head=2)
        orientation.orient(2, 3, head=2)
        dot = orientation_to_dot(orientation)
        assert dot.startswith("digraph orientation {")
        assert "load=" in dot
        assert "color=red" in dot  # the unhappy edge
        assert "style=dashed" in dot  # the unoriented edge
