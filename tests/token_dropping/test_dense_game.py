"""The one dense-game builder, ``game_from_arrays``, against a sorted() model."""

from __future__ import annotations

from array import array

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.token_dropping._kernels import game_from_arrays

INDEX_FIELDS = ("par_ptr", "par_node", "chi_ptr", "chi_node", "chi_edge")


@st.composite
def games(draw):
    """``(n, has_token, levels, child, parent)`` with edges in any order."""
    n = draw(st.integers(min_value=1, max_value=30))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node), unique=True, max_size=60))
    has_token = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    levels = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return n, has_token, levels, [c for c, _ in pairs], [p for _, p in pairs]


def model(n, child, parent):
    """The CSR fields, written out with ``sorted()`` and list scans."""
    edges = sorted(zip(child, parent))
    par_ptr = [sum(1 for c, _ in edges if c < i) for i in range(n + 1)]
    chi_ptr = [sum(1 for _, p in edges if p < i) for i in range(n + 1)]
    by_parent = sorted(range(len(edges)), key=lambda e: (edges[e][1], edges[e][0]))
    return {
        "par_ptr": par_ptr,
        "par_node": [p for _, p in edges],
        "chi_ptr": chi_ptr,
        "chi_node": [edges[e][0] for e in by_parent],
        "chi_edge": by_parent,
    }


def fields(game):
    return {name: list(getattr(game, name)) for name in INDEX_FIELDS}


@given(games())
@example((1, [True], [0], [], []))
@example((3, [False, True, False], [0, 1, 0], [], []))
@settings(max_examples=200, deadline=None)
def test_builder_matches_sorted_model(case):
    n, has_token, levels, child, parent = case
    game, order = game_from_arrays(n, has_token, levels, child, parent)

    assert (game.num_nodes, game.num_edges) == (n, len(child))
    assert game.has_token == bytearray(has_token)
    assert game.level == levels
    assert fields(game) == model(n, child, parent)
    for name in INDEX_FIELDS:
        assert isinstance(getattr(game, name), array), name
        assert getattr(game, name).typecode == "q", name

    # ``order`` sorts the input edges into game-edge order.
    assert [(child[k], parent[k]) for k in order] == sorted(zip(child, parent))

    for i in range(n):
        parents = game.par_node[game.par_ptr[i] : game.par_ptr[i + 1]]
        children = game.chi_node[game.chi_ptr[i] : game.chi_ptr[i + 1]]
        assert list(parents) == sorted(set(parents))
        assert list(children) == sorted(set(children))
        # Each child slot names its edge by the child's parent slot.
        for s in range(game.chi_ptr[i], game.chi_ptr[i + 1]):
            c, e = game.chi_node[s], game.chi_edge[s]
            assert game.par_ptr[c] <= e < game.par_ptr[c + 1]
            assert game.par_node[e] == i

    for kind in (lambda xs: array("q", xs), lambda xs: np.asarray(xs, np.int64)):
        other, other_order = game_from_arrays(
            n,
            np.asarray(has_token, dtype=bool),
            kind(levels),
            kind(child),
            kind(parent),
        )
        assert other.has_token == game.has_token
        assert other.level == game.level
        assert fields(other) == fields(game)
        assert list(other_order) == list(order)
