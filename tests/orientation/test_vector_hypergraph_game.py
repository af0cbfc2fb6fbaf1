"""The k-bounded kernel's rank-2 hypergraph proposal game on NumPy arrays.

:func:`~repro.core.assignment._kernels.hypergraph_phase_game_kernel`
plays each phase's Theorem 7.1 game as per-round vector ops: one mask
over the options gathered once from the game vertices' CSR slots, each
proposer taking the first (``min``) or last (``max``) of its options in
head-rank order, each proposed-to head the first or last of its requests
in proposer-rank order, heads taking turns in first-proposal order, and
``random`` drawing one ``randrange`` per proposer (ascending) and then
one per head (first-proposal order) from the one ``random.Random``.

The hand-traced games below call the kernel directly on small instances
whose every edge is a live game hyperedge ``(child, head)``; node names
are single letters, so dense ids, ``repr`` order and alphabetical order
agree.  A property then holds the whole bounded kernel to
``run_bounded_stable_orientation_reference`` on small dense graphs.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.assignment._kernels as game_kernels
from repro import obs
from repro.core.assignment._kernels import hypergraph_phase_game_kernel
from repro.core.orientation import (
    run_bounded_stable_orientation,
    run_bounded_stable_orientation_reference,
)
from repro.core.orientation._kernels import (
    _edge_customer_ranks,
    bounded_orientation_kernel,
)
from repro.core.token_dropping import HypergraphRoundLimitExceeded
from repro.graphs.compact import CompactGraph
from repro.graphs.generators import bounded_degree_gnp


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    yield
    obs.disable()


def _play(game, tokens, tie_break="min", seed=0, max_game_rounds=100):
    """Play ``game``, a list of live ``(child, head)`` hyperedges.

    Returns ``(rounds, passes, holders)``: the consumed hyperedges as
    ``(child, head)`` in consumption order (the child is the new head)
    and the final token holders.
    """
    graph = CompactGraph.from_edges(game)
    ids = graph.node_ids
    head_of = {frozenset(edge): edge[1] for edge in game}
    by_edge = {}
    choice = np.empty(graph.num_edges, dtype=np.int64)
    for e, (u, v) in enumerate(zip(graph.edge_u, graph.edge_v)):
        head = head_of[frozenset((ids[u], ids[v]))]
        choice[e] = graph.index_of[head]
        by_edge[e] = (ids[v] if ids[u] == head else ids[u], head)
    occupied = np.zeros(graph.num_nodes, dtype=bool)
    occupied[[graph.index_of[t] for t in tokens]] = True
    lo, _, _, pair_rank = _edge_customer_ranks(graph)
    rounds, move_edges, move_heads = hypergraph_phase_game_kernel(
        indptr=np.asarray(graph.indptr, dtype=np.int64),
        slot_edge=np.asarray(graph.slot_edge, dtype=np.int64),
        choice=choice,
        live=np.ones(graph.num_edges, dtype=bool),
        occupied=occupied,
        game_vertices=np.arange(graph.num_nodes),
        lo=lo,
        pair_rank=pair_rank,
        tie_break=tie_break,
        rng=random.Random(seed),
        max_game_rounds=max_game_rounds,
    )
    passes = [by_edge[e] for e in move_edges.tolist()]
    assert [ids[h] for h in move_heads.tolist()] == [child for child, _ in passes]
    holders = {ids[v] for v in np.flatnonzero(occupied).tolist()}
    return rounds, passes, holders


def test_a_head_with_two_proposers_picks_by_policy():
    # b and c both propose to a; min passes to b, max to c.
    game = [("b", "a"), ("c", "a")]
    assert _play(game, {"a"}, "min") == (1, [("b", "a")], {"b"})
    assert _play(game, {"a"}, "max") == (1, [("c", "a")], {"c"})


def test_a_vertex_with_two_occupied_heads_proposes_by_policy():
    # c has two occupied heads: min proposes to a, max to b.
    game = [("c", "a"), ("c", "b")]
    assert _play(game, {"a", "b"}, "min") == (1, [("c", "a")], {"b", "c"})
    assert _play(game, {"a", "b"}, "max") == (1, [("c", "b")], {"a", "c"})


CHAIN = [("b", "a"), ("c", "b"), ("d", "c")]


def test_a_chain_passes_one_hop_per_round():
    with obs.capture() as sink:
        result = _play(CHAIN, {"a"})
    assert result == (3, CHAIN, {"d"})
    counters = {
        event["name"]: event["value"]
        for event in sink.events
        if event.get("type") == "counter"
    }
    # Degrees a=1, b=2, c=2, d=1; each of the four scans (the last finds
    # no proposal) adds the degrees of the unoccupied vertices.
    assert counters["orientation.frontier.game_vertices"] == 4
    assert counters["orientation.frontier.scanned_slots"] == 5 + 4 + 4 + 5


def test_heads_pass_in_first_proposal_order():
    # a proposes to d, b to c: d's first proposal comes first, so its
    # pass is consumed first although c < d.
    game = [("a", "d"), ("b", "c")]
    assert _play(game, {"c", "d"}) == (1, [("a", "d"), ("b", "c")], {"a", "b"})


def test_round_budget_below_the_game_length_raises():
    assert _play(CHAIN, {"a"}, max_game_rounds=3)[0] == 3
    with pytest.raises(HypergraphRoundLimitExceeded, match="exceeded 2 game rounds"):
        _play(CHAIN, {"a"}, max_game_rounds=2)


def test_random_draws_every_proposer_before_any_head():
    # Round 1: c may propose to a or b, d only to a.  Proposer draws come
    # first (c then d), then a's draw if c chose a.  If a passes to d, c
    # proposes to b in round 2.
    game = [("c", "a"), ("c", "b"), ("d", "a")]

    def traced(seed, heads_first):
        rng = random.Random(seed)
        if heads_first:
            # The wrong order: a's two-way draw before the proposers'.
            head_draw = rng.randrange(2)
        c_head = "ab"[rng.randrange(2)]
        rng.randrange(1)  # d's single option
        if c_head == "b":
            return 1, [("c", "b"), ("d", "a")]  # b's first proposal is c's
        if not heads_first:
            head_draw = rng.randrange(2)
        if head_draw == 0:
            return 1, [("c", "a")]
        return 2, [("d", "a"), ("c", "b")]

    seeds = [s for s in range(20) if traced(s, False) != traced(s, True)]
    assert seeds  # the order is observable
    for seed in seeds:
        rounds, passes, _ = _play(game, {"a", "b"}, "random", seed)
        assert (rounds, passes) == traced(seed, False), seed


def test_random_heads_draw_in_first_proposal_order():
    # Heads x < y, every child with one option: a and b propose to y, c
    # and e to x.  y has the first proposal (from a), so y draws first.
    game = [("a", "y"), ("b", "y"), ("c", "x"), ("e", "x")]

    def traced(seed, ascending_heads):
        rng = random.Random(seed)
        for _ in range(4):
            rng.randrange(1)  # every proposer has a single option
        turns = ["x", "y"] if ascending_heads else ["y", "x"]
        requests = {"x": [("c", "x"), ("e", "x")], "y": [("a", "y"), ("b", "y")]}
        return [requests[head][rng.randrange(2)] for head in turns]

    seeds = [s for s in range(20) if set(traced(s, False)) != set(traced(s, True))]
    assert seeds  # the order is observable
    for seed in seeds:
        rounds, passes, _ = _play(game, {"x", "y"}, "random", seed)
        assert (rounds, passes) == (1, traced(seed, False)), seed


def _dense_gnp(n, p, seed):
    nx_graph = bounded_degree_gnp(n, p, n, seed=seed)
    return CompactGraph.from_edges(nx_graph.edges(), nodes=nx_graph.nodes())


def _k(graph, k_choice):
    return max(2, graph.max_degree() + 1) if k_choice == "delta+1" else k_choice


@pytest.mark.parametrize("tie_break", ["min", "max", "random"])
@given(
    n=st.integers(min_value=2, max_value=16),
    p=st.floats(min_value=0.3, max_value=0.9),
    k_choice=st.sampled_from([2, 3, "delta+1"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_bounded_kernel_matches_dict_reference(tie_break, n, p, k_choice, seed):
    graph = _dense_gnp(n, p, seed)
    k = _k(graph, k_choice)
    choice, load, phases, game_rounds, per_phase = bounded_orientation_kernel(
        graph, k=k, tie_break=tie_break, seed=seed
    )
    reference = run_bounded_stable_orientation_reference(
        graph, k=k, tie_break=tie_break, seed=seed
    )
    assert (choice, load) == reference.orientation.to_arrays(graph)
    assert per_phase == reference.per_phase
    assert (phases, game_rounds) == (reference.phases, reference.game_rounds)


def test_dense_gnp_games_run_several_rounds_and_contest_heads(monkeypatch):
    """The property's instances exercise multi-round games and heads with
    several requests, so its agreement with the reference is not vacuous."""
    group_sizes = []
    pick = game_kernels._pick

    def recording_pick(start, size, tie_break, rng):
        group_sizes.append(size.tolist())
        return pick(start, size, tie_break, rng)

    # ``_pick`` runs twice per round: proposers, then heads.
    monkeypatch.setattr(game_kernels, "_pick", recording_pick)
    longest_game = 0
    for seed in range(10):
        for p in (0.3, 0.6, 0.9):
            graph = _dense_gnp(14, p, seed)
            for k_choice in (2, 3, "delta+1"):
                for tie_break in ("min", "max", "random"):
                    per_phase = bounded_orientation_kernel(
                        graph, k=_k(graph, k_choice), tie_break=tie_break, seed=seed
                    )[4]
                    longest_game = max(
                        longest_game,
                        *(row.token_dropping_game_rounds for row in per_phase),
                    )
    head_requests = [size for sizes in group_sizes[1::2] for size in sizes]
    assert longest_game >= 2
    assert max(head_requests) >= 2
