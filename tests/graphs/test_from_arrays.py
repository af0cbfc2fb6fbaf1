"""``CompactGraph.from_arrays`` against ``from_edges``, field for field.

:meth:`CompactGraph.from_arrays` is the NumPy builder for dense int ids
``range(n)``; :meth:`CompactGraph.from_edges` is the general-id builder
and the specification.  Both must produce the same seven fields
(``node_ids``, ``index_of`` and the five CSR buffers) and reject the same
inputs with the same ``OrientationError`` text.  The random instances
reach past id 10, so ``repr`` order ("10" < "2") differs from numeric
order and a numeric rank would be caught.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orientation.problem import OrientationError
from repro.graphs.compact import CSR_FIELDS, CompactGraph, int_repr_order

FIELDS = ("node_ids", "index_of") + CSR_FIELDS


def assert_same_fields(a: CompactGraph, b: CompactGraph) -> None:
    for field in FIELDS:
        assert getattr(a, field) == getattr(b, field), field
    for field in CSR_FIELDS:
        assert isinstance(getattr(a, field), array), field


def from_both(u, v, n):
    return (
        CompactGraph.from_arrays(u, v, n),
        CompactGraph.from_edges(zip(u, v), nodes=range(n)),
    )


@st.composite
def _int_graphs(draw):
    """``(u, v, n)``: distinct pairs in random order and direction."""
    n = draw(st.integers(min_value=0, max_value=40))
    if n < 2:
        return [], [], n
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda p: p[0] != p[1]),
            unique_by=lambda p: frozenset(p),
            max_size=80,
        )
    )
    return [a for a, _ in pairs], [b for _, b in pairs], n


@settings(max_examples=300, deadline=None)
@given(_int_graphs())
def test_from_arrays_equals_from_edges(graph):
    u, v, n = graph
    arrays, edges = from_both(u, v, n)
    assert_same_fields(arrays, edges)


@pytest.mark.parametrize("n", [0, 1, 2, 11, 25])
def test_no_edges_keeps_every_node(n):
    arrays, edges = from_both([], [], n)
    assert_same_fields(arrays, edges)
    assert arrays.num_nodes == n
    assert arrays.num_edges == 0
    assert list(arrays.indptr) == [0] * (n + 1)


def test_accepts_numpy_and_array_inputs():
    u, v, n = [12, 3, 10, 0], [2, 11, 1, 12], 13
    expected = CompactGraph.from_edges(zip(u, v), nodes=range(n))
    for wrap in (np.asarray, lambda xs: array("q", xs), tuple):
        assert_same_fields(CompactGraph.from_arrays(wrap(u), wrap(v), n), expected)


#: Every digit boundary up to 10⁵ (0, 1, 2, 9, 10, 11, 99, 100, 101, …).
DIGIT_BOUNDARIES = sorted(
    {0, 1234} | {10**k + d for k in range(6) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize("n", DIGIT_BOUNDARIES)
def test_int_repr_order_is_sorted_by_repr(n):
    order, rank = int_repr_order(n)
    expected = sorted(range(n), key=repr)
    assert order.tolist() == expected
    assert [expected[r] for r in rank.tolist()] == list(range(n))


@pytest.mark.parametrize("n", [0, 1, 2, 11, 1234])
def test_lexicographic_reprs_memo_equals_a_fresh_scan(n):
    u = list(range(n - 1))
    graph = CompactGraph.from_arrays(u, [x + 1 for x in u], n)
    memo = graph.derived["lexicographic_reprs"]
    graph.derived.clear()
    assert graph.lexicographic_reprs() is memo is True


def raised(build):
    with pytest.raises(OrientationError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize(
    "u, v",
    [
        # self-loops: the first one in input order is reported
        ([1, 4, 3], [2, 4, 3]),
        ([4, 1, 4], [4, 2, 1]),
        # a duplicate in the other direction and in the same direction
        ([3, 7], [7, 3]),
        ([3, 3, 1], [7, 7, 2]),
        # two duplicated edges: the first in repr order of the key,
        # which is not numeric order: "(10, 11)" < "(2, 3)"
        ([2, 10, 3, 11], [3, 11, 2, 10]),
        ([11, 2, 1, 10, 3], [10, 3, 12, 11, 2]),
        # a self-loop after a duplicate is still reported first
        ([3, 7, 5], [7, 3, 5]),
    ],
)
def test_rejects_what_from_edges_rejects(u, v):
    n = 13
    expected = raised(lambda: CompactGraph.from_edges(zip(u, v), nodes=range(n)))
    assert raised(lambda: CompactGraph.from_arrays(u, v, n)) == expected


@pytest.mark.parametrize(
    "u, v, bad",
    [([0, 5], [1, 6], 6), ([0, -1], [1, 2], -1), ([7, 1], [1, 2], 7)],
)
def test_rejects_ids_outside_the_node_range(u, v, bad):
    # from_edges would add such a node; from_arrays builds over range(n)
    # only, so it rejects the first endpoint outside it.
    assert raised(lambda: CompactGraph.from_arrays(u, v, 6)) == (
        f"node {bad!r} is not in range(6)"
    )


def test_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="equal length"):
        CompactGraph.from_arrays([0, 1], [1], 3)
