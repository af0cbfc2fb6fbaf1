"""The Theorem 5.1 phase game's maximality check reports the first stuck token.

With ``check_invariants``, :func:`~repro.core.orientation._kernels.
stable_orientation_kernel` checks that each played phase game ends
maximal (output rule 3, which Lemma 5.4 needs): no token may sit on a
parent over an unconsumed edge to an unoccupied child.  A correct game
kernel never trips it, so the test below plays the real kernel and then
drops its last pass, handing the token back to its parent and the edge
back to the game.  The check must raise, naming the first stuck
``(parent, child)`` pair in ascending dense order, which an explicit scan
written out here finds independently.
"""

from __future__ import annotations

import pytest

import repro.core.token_dropping._kernels as game_kernels
from repro.core.orientation._kernels import stable_orientation_kernel
from repro.core.token_dropping.traversal import InvalidSolutionError
from repro.workloads.scenarios import scale_layered_orientation


def first_stuck(game, token, consumed):
    """The first ``(parent, child)`` stuck pair, scanning parents then children."""
    for parent in range(game.num_nodes):
        if token[parent] < 0:
            continue
        for s in range(game.chi_ptr[parent], game.chi_ptr[parent + 1]):
            child = game.chi_node[s]
            if not consumed[game.chi_edge[s]] and token[child] < 0:
                return parent, child
    return None


def test_dropped_pass_fails_the_maximality_check(monkeypatch):
    graph = scale_layered_orientation(
        num_levels=6, width=20, edge_probability=0.15, seed=3
    )
    seen = {}
    real_kernel = game_kernels.proposal_game_kernel
    real_rngs = game_kernels._node_rngs

    def recording_rngs(tie_break, seed, node_ids):
        # The played game's ids, in its dense order.
        seen["ids"] = node_ids
        return real_rngs(tie_break, seed, node_ids)

    def dropping_kernel(game, max_rounds, **options):
        run = real_kernel(game, max_rounds, **options)
        assert first_stuck(game, run.token, run.consumed) is None
        if not run.passes.shape[1]:
            return run
        _, parent, child, tok = run.passes[:, -1].tolist()
        token = run.token.copy()
        consumed = run.consumed.copy()
        token[child] = -1
        token[parent] = tok
        row = range(game.par_ptr[child], game.par_ptr[child + 1])
        (edge,) = (e for e in row if game.par_node[e] == parent)
        consumed[edge] = False
        seen["stuck"] = first_stuck(game, token, consumed)
        return run._replace(token=token, consumed=consumed)

    monkeypatch.setattr(game_kernels, "_node_rngs", recording_rngs)
    monkeypatch.setattr(game_kernels, "proposal_game_kernel", dropping_kernel)
    with pytest.raises(InvalidSolutionError) as raised:
        stable_orientation_kernel(graph, tie_break="random", seed=1)

    ids = seen["ids"]
    parent, child = seen["stuck"]
    assert str(raised.value) == (
        f"not maximal: token at {ids[parent]!r} can still move to {ids[child]!r}"
    )

