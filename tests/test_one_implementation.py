"""One implementation per entry point, and tie-break policies checked up front.

Each public entry point runs exactly one implementation; its dict twin is
a separately named ``*_reference`` oracle.  Nothing takes a ``backend=``
argument except the two compatibility shims the benchmark still calls,
and those accept only ``"compact"``.
"""

from __future__ import annotations

import inspect

import pytest

import repro
from repro import api
from repro.core.assignment import (
    best_response_dynamics,
    greedy_assignment,
    run_bounded_stable_assignment,
    run_stable_assignment,
)
from repro.core.orientation import (
    DynamicOrientation,
    OrientationProblem,
    run_bounded_stable_orientation,
    run_bounded_stable_orientation_reference,
    run_stable_orientation,
    run_stable_orientation_reference,
    sequential_flip_algorithm,
    synchronous_repair_orientation,
)
from repro.core.orientation._kernels import (
    bounded_orientation_kernel,
    stable_orientation_kernel,
)
from repro.core.token_dropping import (
    HypergraphTokenDroppingInstance,
    greedy_token_dropping,
    run_hypergraph_proposal,
    run_proposal_algorithm,
    run_proposal_algorithm_reference,
    run_three_level_algorithm,
    run_three_level_algorithm_reference,
)
from repro.core.token_dropping.game import TokenDroppingInstance
from repro.dispatch import resolve_backend
from repro.graphs.bipartite import CustomerServerGraph
from repro.graphs.compact import CompactGraph
from repro.graphs.hypergraph import Hypergraph
from repro.graphs.layered import LayeredGraph
from repro.local_model import Runner

#: The callables that lost their ``backend`` parameter.
SINGLE_PATH = [
    api.solve,
    DynamicOrientation,
    Runner,
    run_proposal_algorithm,
    run_three_level_algorithm,
    greedy_token_dropping,
    greedy_assignment,
    best_response_dynamics,
    sequential_flip_algorithm,
    synchronous_repair_orientation,
]

#: The entry points that keep ``backend="compact"`` for the benchmark.
SHIMS = [run_stable_orientation, run_bounded_stable_orientation]

#: A triangle with a pendant edge: small enough that no tie is drawn.
SMALL_EDGES = [(0, 1), (1, 2), (2, 0), (2, 3)]


@pytest.mark.parametrize("entry", SINGLE_PATH, ids=lambda f: f.__qualname__)
def test_no_backend_parameter(entry):
    assert "backend" not in inspect.signature(entry).parameters


@pytest.mark.parametrize("entry", SHIMS, ids=lambda f: f.__qualname__)
@pytest.mark.parametrize("backend", ["dict", "auto", "Compact", None, 1])
def test_shims_accept_only_compact(entry, backend):
    graph = CompactGraph.from_edges(SMALL_EDGES)
    with pytest.raises(ValueError, match="backend must be 'compact'"):
        entry(graph, backend=backend)
    assert entry(graph, backend="compact").orientation.is_complete()


def test_compat_names_report_the_one_backend():
    assert resolve_backend() == resolve_backend(None) == "compact"
    solved = repro.solve(CompactGraph.from_edges(SMALL_EDGES))
    assert solved.backend == "compact"
    assert "backend" not in inspect.signature(api.Solved).parameters


# ----------------------------------------------------------------------
# tie_break is validated before any work, on every input
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", api.ALGORITHMS)
@pytest.mark.parametrize("edges", [SMALL_EDGES, []], ids=["small", "edgeless"])
def test_solve_rejects_unknown_tie_break(algorithm, edges):
    graph = CompactGraph.from_edges(edges, nodes=[0, 1])
    with pytest.raises(ValueError, match="unknown tie-break policy 'bogus'"):
        repro.solve(graph, algorithm=algorithm, tie_break="bogus")


@pytest.mark.parametrize(
    "entry",
    [
        run_stable_orientation,
        run_stable_orientation_reference,
        run_bounded_stable_orientation,
        run_bounded_stable_orientation_reference,
        stable_orientation_kernel,
        bounded_orientation_kernel,
    ],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("edges", [SMALL_EDGES, []], ids=["small", "edgeless"])
def test_orientation_entries_reject_unknown_tie_break(entry, edges):
    problem = OrientationProblem(edges=edges, nodes=[0, 1])
    graph = CompactGraph.from_orientation_problem(problem)
    source = graph if entry.__name__.endswith("_kernel") else problem
    with pytest.raises(ValueError, match="unknown tie-break policy"):
        entry(source, tie_break="bogus")


@pytest.mark.parametrize(
    "entry", [run_stable_assignment, run_bounded_stable_assignment]
)
@pytest.mark.parametrize("edges", [SMALL_EDGES, []], ids=["small", "edgeless"])
def test_assignment_entries_reject_unknown_tie_break(entry, edges):
    graph = CustomerServerGraph.from_orientation_graph(edges)
    with pytest.raises(ValueError, match="unknown tie-break policy"):
        entry(graph, tie_break="bogus")


@pytest.mark.parametrize(
    "entry",
    [
        run_proposal_algorithm,
        run_proposal_algorithm_reference,
        run_three_level_algorithm,
        run_three_level_algorithm_reference,
    ],
    ids=lambda f: f.__name__,
)
def test_token_dropping_entries_reject_unknown_tie_break(entry):
    empty = TokenDroppingInstance(LayeredGraph(levels={}), frozenset())
    with pytest.raises(ValueError, match="unknown tie-break policy"):
        entry(empty, tie_break="bogus")


def test_hypergraph_game_rejects_unknown_tie_break():
    game = HypergraphTokenDroppingInstance(
        Hypergraph(vertices=[], hyperedges={}), levels={}, heads={}, tokens=()
    )
    with pytest.raises(ValueError, match="unknown tie-break policy"):
        run_hypergraph_proposal(game, tie_break="bogus")
