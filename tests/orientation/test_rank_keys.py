"""The integer ranks that replay the reference's ``repr`` tie-breaks.

:func:`~repro.core.orientation._kernels.directed_ranks` (repair and
sequential flips) and :func:`~repro.core.orientation._kernels.
_edge_customer_ranks` (the k-bounded kernel) read their ranks off the
CSR slot order whenever :meth:`~repro.graphs.compact.CompactGraph.
lexicographic_reprs` holds, and sort the ``repr`` strings otherwise.
These tests pin both branches to the ``repr`` strings they replace: the
predicate holds on builtin ids and the slot ranks equal the string
ranks; custom ``__repr__`` ids fail it, would sort differently as dense
tuples, and still match the dict reference through the string fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.core.orientation import (
    FLIP_POLICIES,
    OrientationProblem,
    run_bounded_stable_orientation,
    run_bounded_stable_orientation_reference,
    sequential_flip_algorithm,
    sequential_flip_algorithm_reference,
    synchronous_repair_orientation,
    synchronous_repair_orientation_reference,
)
from repro.core.orientation._kernels import _edge_customer_ranks, directed_ranks
from repro.core.token_dropping import TIE_BREAK_POLICIES
from repro.graphs.compact import (
    CSR_FIELDS,
    ArraySnapshot,
    CompactGraph,
    write_array_snapshot,
)


@dataclass(frozen=True, repr=False)
class Raw:
    """A node id whose ``repr`` is its bare text (a custom ``__repr__``)."""

    text: str

    def __repr__(self) -> str:
        return self.text


#: Custom reprs that break the predicate: ``"a"`` is a prefix of the
#: others, continued by a character at or below ``","``.
RAW_TEXTS = ("a", "a b", "a+", "a,", "a,b", "b", "b)", "b))", "c", "c d")


def _order(keys) -> list:
    return sorted(range(len(keys)), key=keys.__getitem__)


def _directed_reprs(graph):
    """The reference's ``repr((tail, head))`` per edge, both directions."""
    ids = graph.node_ids
    pairs = list(zip(graph.edge_u, graph.edge_v))
    to_v = [repr((ids[u], ids[v])) for u, v in pairs]
    to_u = [repr((ids[v], ids[u])) for u, v in pairs]
    return to_v, to_u


def _edge_customer_reprs(graph):
    """Customer-label and ``(endpoint, label)`` reprs, in table layout."""
    ids = graph.node_ids
    lo = list(map(min, graph.edge_u, graph.edge_v))
    hi = list(map(max, graph.edge_u, graph.edge_v))
    labels = [("edge", ids[a], ids[b]) for a, b in zip(lo, hi)]
    pairs = []
    for a, b, label in zip(lo, hi, labels):
        pairs += [repr((ids[a], label)), repr((ids[b], label))]
    return list(map(repr, labels)), pairs


def _string_ranks(strings) -> list:
    rank = [0] * len(strings)
    for r, i in enumerate(_order(strings)):
        rank[i] = r
    return rank


def _assert_ranks_are_repr_ranks(graph) -> None:
    to_v, to_u = _directed_reprs(graph)
    rank = _string_ranks(to_v + to_u)
    m = graph.num_edges
    assert [table.tolist() for table in directed_ranks(graph)] == [rank[:m], rank[m:]]
    label_reprs, pair_reprs = _edge_customer_reprs(graph)
    _, _, cust_order, pair_rank = _edge_customer_ranks(graph)
    assert cust_order.tolist() == _order(label_reprs)
    assert pair_rank.tolist() == _string_ranks(pair_reprs)


def _complete_graph(ids) -> CompactGraph:
    ids = list(ids)
    return CompactGraph.from_edges(
        [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    )


_ATOMS = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.text(max_size=4),
    st.floats(allow_nan=False),
)
_IDS = st.one_of(_ATOMS, st.tuples(_ATOMS, _ATOMS))


@given(
    ids=st.lists(_IDS, min_size=2, max_size=12, unique=True),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_builtin_ids_pass_and_slot_ranks_are_repr_ranks(ids, data):
    all_pairs = [(i, j) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    chosen = data.draw(st.lists(st.sampled_from(all_pairs), min_size=1, unique=True))
    graph = CompactGraph.from_edges([(ids[i], ids[j]) for i, j in chosen], nodes=ids)
    assert graph.lexicographic_reprs()
    _assert_ranks_are_repr_ranks(graph)


@pytest.mark.parametrize(
    "ids, expected",
    [
        ([Raw("a"), Raw("a-")], True),
        ([Raw("a"), Raw("a,")], False),
        ([Raw("a"), Raw("a+")], False),
        ([Raw("b"), Raw("b)")], False),
        ([Raw("1"), 1], False),
    ],
    ids=["continues-above-comma", "comma", "plus", "bracket", "shared-repr"],
)
def test_predicate_on_minimal_id_sets(ids, expected):
    graph = _complete_graph([*ids, "z"])
    assert graph.lexicographic_reprs() is expected
    _assert_ranks_are_repr_ranks(graph)


class TestCustomReprIds:
    def test_predicate_fails_and_dense_tuple_order_would_differ(self):
        graph = _complete_graph(map(Raw, RAW_TEXTS))
        assert not graph.lexicographic_reprs()
        n = graph.num_nodes
        pairs = list(zip(graph.edge_u, graph.edge_v))
        tuple_keys = [u * n + v for u, v in pairs] + [v * n + u for u, v in pairs]
        to_v, to_u = _directed_reprs(graph)
        assert _order(tuple_keys) != _order(to_v + to_u)
        label_reprs, _ = _edge_customer_reprs(graph)
        int_customers = _order([min(u, v) * n + max(u, v) for u, v in pairs])
        assert int_customers != _order(label_reprs)
        # The string fallback is the exact rule.
        _assert_ranks_are_repr_ranks(graph)

    @pytest.fixture(scope="class")
    def problem(self):
        texts = RAW_TEXTS
        edges = [
            (Raw(texts[i]), Raw(texts[j]))
            for i in range(len(texts))
            for j in range(i + 1, len(texts))
            if (i * 7 + j * 3) % 4
        ]
        return OrientationProblem(edges=edges)

    def test_repair_matches_dict_reference(self, problem):
        for seed in range(4):
            ref, ref_stats = synchronous_repair_orientation_reference(
                problem, seed=seed
            )
            fast, fast_stats = synchronous_repair_orientation(
                problem, seed=seed
            )
            assert ref.oriented_edges() == fast.oriented_edges(), seed
            assert ref_stats == fast_stats, seed

    @pytest.mark.parametrize("tie_break", TIE_BREAK_POLICIES)
    def test_bounded_matches_dict_reference(self, problem, tie_break):
        for seed in range(3):
            ref = run_bounded_stable_orientation_reference(
                problem, tie_break=tie_break, seed=seed
            )
            fast = run_bounded_stable_orientation(
                problem, tie_break=tie_break, seed=seed
            )
            context = (tie_break, seed)
            assert (
                ref.orientation.oriented_edges() == fast.orientation.oriented_edges()
            ), context
            assert (
                ref.assignment_result.per_phase == fast.assignment_result.per_phase
            ), context
            assert ref.game_rounds == fast.game_rounds, context

    @pytest.mark.parametrize("policy", FLIP_POLICIES)
    def test_sequential_flip_matches_dict_reference(self, problem, policy):
        for seed in range(3):
            ref, ref_stats = sequential_flip_algorithm_reference(
                problem, policy=policy, seed=seed, record_trace=True
            )
            fast, fast_stats = sequential_flip_algorithm(
                problem, policy=policy, seed=seed, record_trace=True
            )
            assert ref.oriented_edges() == fast.oriented_edges(), (policy, seed)
            assert ref_stats == fast_stats, (policy, seed)


@pytest.mark.parametrize(
    "ids",
    [
        [3, -12, "x", "x y", 2.5, (1, "a"), 40, -1, 1e16],
        [Raw(text) for text in RAW_TEXTS],
    ],
    ids=["builtin", "custom-repr"],
)
def test_snapshot_restored_graph_gives_the_same_ranks(tmp_path, ids):
    graph = _complete_graph(ids)
    path = tmp_path / "graph.snap"
    write_array_snapshot(path, graph.snapshot_sections())
    with ArraySnapshot(path) as snapshot:
        restored = CompactGraph.from_buffers(
            graph.node_ids, {field: snapshot.section(field) for field in CSR_FIELDS}
        )
        assert restored.lexicographic_reprs() == graph.lexicographic_reprs()
        assert [table.tolist() for table in directed_ranks(restored)] == [
            table.tolist() for table in directed_ranks(graph)
        ]
        assert [table.tolist() for table in _edge_customer_ranks(restored)] == [
            table.tolist() for table in _edge_customer_ranks(graph)
        ]
        del restored


def test_rank_key_spans_only_when_a_table_is_computed():
    instance = repro.Instance.build("sensor-network", num_nodes=60, seed=3)
    m = instance.num_edges
    with obs.capture() as cold:
        repro.solve(instance, algorithm="repair")
        repro.solve(instance, algorithm="bounded")
    spans = cold.spans("orientation.rank_keys")
    assert sorted(span["attrs"]["table"] for span in spans) == [
        "directed",
        "edge_customer",
    ]
    for span in spans:
        assert span["attrs"]["edges"] == m
        assert span["attrs"]["lexicographic"] is True
    with obs.capture() as warm:
        repro.solve(instance, algorithm="repair")
        repro.solve(instance, algorithm="bounded")
    assert warm.spans("orientation.rank_keys") == []
