"""Exactness of the Theorem 5.1 phase game's token-free pruning.

:func:`~repro.core.orientation._kernels.stable_orientation_kernel` plays
only the weakly connected components of each phase's Lemma 5.2 game that
hold a token.  A token-free component makes no moves and its round count
has a closed form: a node with no game parents halts at round 0, every
other node three rounds after its last parent, so the component's last
halt is round ``3·L`` for ``L`` its longest upward path.  The phase's
round count is the larger of the played game's and ``3·L``.

These tests pin that contract against ``run_stable_orientation_reference``,
which plays every game in full on the reference scheduler: one phase
where a token-free chain outlasts the played game, one phase whose game
holds no token at all, the ``orientation.frontier.played_edges`` and
``free_rounds`` counters on a hand-traced instance, and a property over
small random graphs and every tie-break policy.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.orientation import (
    run_stable_orientation,
    run_stable_orientation_reference,
)
from repro.core.orientation._kernels import stable_orientation_kernel
from repro.graphs.compact import CompactGraph
from repro.graphs.generators import bounded_degree_gnp
from repro.workloads.scenarios import layered_dag_orientation

# Phase by phase (levels are loads; a game edge runs child -> parent):
#
# 1. Every edge proposes to its smaller endpoint; a, b, c, d accept
#    a-b, b-f, c-f, d-e.  No game.
# 2. Levels a=b=c=d=1.  Game f->b, f->c, e->d; tokens on a and g, neither
#    in the game.  Both components are token-free with L = 1: 3 rounds.
# 3. Levels a=2, b=c=d=g=1.  Game b->a, c->a, f->b, f->c, e->d; token on
#    d.  The token-free component {a, b, c, f} has the chain f->b->a,
#    L = 2: 6 rounds.  The played component {d, e} passes d's token to e
#    and is over at round 3.  The phase takes 6 rounds, from the closed
#    form alone.
CHAIN_EDGES = [
    ("a", "b"),
    ("a", "c"),
    ("a", "d"),
    ("b", "f"),
    ("b", "g"),
    ("c", "f"),
    ("d", "e"),
]


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    yield
    obs.disable()


def _frontier_series(sink):
    series = defaultdict(list)
    for event in sink.events:
        if event.get("type") == "counter" and event["name"].startswith(
            "orientation.frontier."
        ):
            series[event["name"].rsplit(".", 1)[1]].append(event["value"])
    return series


def _assert_matches_reference(graph, tie_break="min", seed=0):
    heads, load, phases, game_rounds, rounds, per_phase = stable_orientation_kernel(
        graph, tie_break=tie_break, seed=seed
    )
    reference = run_stable_orientation_reference(
        graph, tie_break=tie_break, seed=seed
    )
    assert (heads, load) == reference.orientation.to_arrays(graph)
    assert per_phase == reference.per_phase
    assert (phases, game_rounds, rounds) == (
        reference.phases,
        reference.game_rounds,
        reference.communication_rounds,
    )
    return per_phase


def test_token_free_chain_sets_the_phase_round_count():
    graph = CompactGraph.from_edges(CHAIN_EDGES)
    per_phase = _assert_matches_reference(graph)
    third = per_phase[2]
    assert third.token_dropping_height == 2
    assert third.token_dropping_communication_rounds == 6
    assert third.token_dropping_game_rounds == 2
    assert third.edges_flipped == 1  # e-d, the played component's one move


def test_game_without_an_in_game_token_is_not_played():
    # Phase 1 orients a-b towards a and b-c towards b; phase 2's game is
    # the single edge c->b with the only token on d, off the game.
    graph = CompactGraph.from_edges([("a", "b"), ("b", "c"), ("b", "d")])
    with obs.capture() as sink:
        per_phase = _assert_matches_reference(graph)
    second = per_phase[1]
    assert (second.tokens, second.edges_flipped) == (1, 0)
    assert second.token_dropping_communication_rounds == 3
    series = _frontier_series(sink)
    assert series["game_edges"] == [0, 1]
    assert series["played_edges"] == [0, 0]
    assert series["free_rounds"] == [0, 3]


def test_played_edge_and_free_round_counters():
    graph = CompactGraph.from_edges(CHAIN_EDGES)
    with obs.capture() as sink:
        stable_orientation_kernel(graph)
    series = _frontier_series(sink)
    assert series["game_edges"] == [0, 3, 5]
    assert series["played_edges"] == [0, 0, 1]
    assert series["free_rounds"] == [0, 3, 6]


@pytest.mark.parametrize("tie_break", ["min", "max", "random"])
@given(
    family=st.sampled_from(["layered", "gnp"]),
    size=st.integers(min_value=2, max_value=8),
    p=st.floats(min_value=0.1, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_pruned_kernel_matches_dict_reference(tie_break, family, size, p, seed):
    if family == "layered":
        graph = layered_dag_orientation(
            num_levels=size, width=4, edge_probability=p, seed=seed, compact=True
        )
    else:
        nx_graph = bounded_degree_gnp(3 * size, p, 5, seed=seed)
        graph = CompactGraph.from_edges(nx_graph.edges(), nodes=nx_graph.nodes())
    _assert_matches_reference(graph, tie_break=tie_break, seed=seed)
