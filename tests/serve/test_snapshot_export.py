"""The snapshot export of a churned engine, against the string-keyed path.

:meth:`DynamicOrientation.solved_arrays` wraps the sections of
:meth:`DeltaOverlayGraph.export_sections`, which merges the base CSR with
the overlay's joined nodes and inserted edges for any ids: predicate P
only chooses whether an inserted edge sorts by its int rank pair or by
its key string.  Every export here runs with :func:`repro.graphs.
compact._csr` refused, so none rebuilds the live graph.  The oracle is
the string-keyed path: ``from_edges`` over the overlay's canonical key
tuples, then one lookup per live edge in a dict of the rebuilt graph's
edge keys.  Where ids have distinct ``repr``s the node and edge order are
also checked against the reference :class:`OrientationProblem`
(``repr``-sorted strings), so the oracle does not lean on the builders
under test.  Distinct ids with one ``repr`` have no reference order (the
reference sorts a set of them by ``repr`` alone); for them the oracle is
the stable ``from_edges`` rebuild only.
"""

from __future__ import annotations

import hashlib
import os
import random
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.compact as compact
from repro.core.orientation import (
    DynamicOrientation,
    EdgeDelete,
    EdgeInsert,
    NodeJoin,
    NodeLeave,
)
from repro.core.orientation.problem import OrientationError, OrientationProblem
from repro.graphs.compact import CSR_FIELDS, CompactGraph
from repro.serve.snapshot import load_state, save_state
from repro.workloads import churn_smoke, churn_smoke_trace
from repro.workloads.churn import churn_trace
from repro.workloads.scenarios import scale_layered_orientation

pytestmark = pytest.mark.integration


def _rebuilt_export(engine):
    """``(graph, heads, load)`` of a ``from_edges`` rebuild of the live graph."""
    overlay = engine._overlay
    ids = overlay.node_ids
    live = [ids[i] for i in overlay.live_node_indices()]
    graph = CompactGraph.from_edges(overlay.edge_keys(), nodes=live)
    edge_of = {key: e for e, key in enumerate(graph.edge_keys())}
    heads = [0] * graph.num_edges
    for e in overlay.live_edge_indices():
        key = (ids[overlay.edge_u[e]], ids[overlay.edge_v[e]])
        heads[edge_of[key]] = graph.index_of[ids[engine._heads[e]]]
    load = [0] * graph.num_nodes
    for h in heads:
        load[h] += 1
    return graph, heads, load


def _string_keyed_export(engine):
    """:func:`_rebuilt_export`, its order checked against the reference."""
    graph, heads, load = _rebuilt_export(engine)
    problem = OrientationProblem(graph.edge_keys(), nodes=graph.node_ids)
    assert graph.node_ids == problem.nodes
    assert graph.edge_keys() == problem.edges
    return graph, heads, load


def _flat(graph, heads, load):
    return (
        graph.node_ids,
        *(list(getattr(graph, field)) for field in CSR_FIELDS),
        list(heads),
        list(load),
        graph.lexicographic_reprs(),
    )


def _refuse(*args):
    raise AssertionError("_csr was called")


def _merged_export(engine):
    """``engine.solved_arrays()`` with the CSR rebuild refused."""
    with mock.patch.object(compact, "_csr", _refuse):
        return engine.solved_arrays()


def assert_export_matches_oracle(engine, oracle=_string_keyed_export):
    got = _merged_export(engine)
    assert _flat(*got) == _flat(*oracle(engine))
    # The restored graph is a fresh build, so its edge lookup must agree.
    graph = got[0]
    for e, (u, v) in enumerate(graph.edge_keys()):
        assert graph.edge_index(v, u) == e


def _churned(graph, updates, *, seed=1):
    engine = DynamicOrientation(graph, seed=seed)
    trace = churn_trace(graph, num_updates=updates, seed=seed, mix="mixed")
    for lo in range(0, len(trace), 8):
        engine.apply_batch(trace[lo : lo + 8])
    return engine


def _has_tuple_ids(engine):
    return any(isinstance(x, tuple) for x in engine.solved_arrays()[0].node_ids)


def export_digest(engine) -> str:
    """sha256 of the five CSR buffers, the node ids, heads and load."""
    graph, heads, load = engine.solved_arrays()
    h = hashlib.sha256()
    for field in CSR_FIELDS:
        h.update(memoryview(array("q", getattr(graph, field))).cast("B"))
    h.update(repr(graph.node_ids).encode())
    h.update(memoryview(array("q", heads)).cast("B"))
    h.update(memoryview(array("q", load)).cast("B"))
    return h.hexdigest()


class Node:
    """An id whose ``repr`` breaks predicate P: ``a`` is a prefix of ``a!``."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Node) and other.name == self.name

    def __hash__(self):
        return hash(self.name)


class TestExportMatchesTheStringKeyedPath:
    @pytest.mark.parametrize("updates", [60, None], ids=["60", "full-trace"])
    def test_churn_smoke(self, updates):
        instance = churn_smoke(compact=True)
        engine = DynamicOrientation(instance, seed=5)
        trace = churn_smoke_trace(instance)
        engine.apply_batch(trace[:updates])
        assert _has_tuple_ids(engine)
        assert_export_matches_oracle(engine)

    def test_scale_layered_with_churn_joins(self):
        graph = scale_layered_orientation(
            num_levels=8, width=60, edge_probability=0.05, seed=3
        )
        engine = _churned(graph, 300)
        assert _has_tuple_ids(engine)
        exported = _merged_export(engine)[0]
        assert exported.derived["lexicographic_reprs"] is True
        assert_export_matches_oracle(engine)

    def test_str_ids(self):
        names = [f"n{i}" for i in range(40)]
        edges = [(names[i], names[(i * 7 + 3) % 40]) for i in range(40)]
        edges += [(names[i], names[i + 1]) for i in range(39)]
        graph = CompactGraph.from_edges(
            {tuple(sorted(e)) for e in edges if e[0] != e[1]}, nodes=names
        )
        engine = _churned(graph, 120)
        assert_export_matches_oracle(engine)

    def test_ids_that_fail_predicate_p_take_the_string_keys(self):
        # "(a!, b)" sorts before "(a, b)" as a string, while the rank pair
        # of a! (rank 1) sorts after that of a (rank 0): only string keys
        # give the reference order here.
        a, a_bang, b, c = Node("a"), Node("a!"), Node("b"), Node("c")
        graph = CompactGraph.from_edges([(a, b), (a_bang, b), (a, c), (b, c)])
        assert graph.derived["lexicographic_reprs"] is False
        assert graph.edge_keys()[:2] == ((a_bang, b), (a, b))
        engine = DynamicOrientation(graph, seed=2)
        no_leaves = {"insert": 1.0, "delete": 1.0, "join": 1.0}
        trace = churn_trace(graph, num_updates=20, seed=4, mix=no_leaves)
        engine.apply_batch(trace)
        exported = _merged_export(engine)[0]
        assert exported.derived["lexicographic_reprs"] is False
        assert exported.lexicographic_reprs() is False
        assert_export_matches_oracle(engine)

    @pytest.mark.parametrize(
        "edges",
        [
            [(1, 2), (3, 2), (2, 1)],
            [
                (Node("a"), Node("b")),
                (Node("b"), Node("a!")),
                (Node("b"), Node("a")),
            ],
        ],
        ids=["int-keys", "string-keys"],
    )
    def test_duplicate_edge_is_still_rejected(self, edges):
        with pytest.raises(OrientationError) as got:
            CompactGraph.from_edges(edges)
        with pytest.raises(OrientationError) as reference:
            OrientationProblem(edges)
        assert str(got.value) == str(reference.value)

    def test_churned_scale_export_is_pinned(self):
        # Taken from the string-keyed export: 10^4 nodes, 400 mixed churn
        # updates in 8-delta batches.
        graph = scale_layered_orientation(
            num_levels=50, width=200, edge_probability=0.01, seed=11
        )
        engine = _churned(graph, 400)
        assert (engine.num_nodes, engine.num_edges) == (9995, 19432)
        assert _has_tuple_ids(engine)
        assert export_digest(engine) == (
            "46ae49a767cf8bd9a53bd37d1fb60266ab21c56a1758f79e5c6c0c6c6f76bd19"
        )


def _grid(width=6, height=5, ids=None):
    """A grid graph engine; ``ids`` maps an int to the node id."""
    ids = ids or (lambda i: i)
    edges = []
    for r in range(height):
        for c in range(width):
            i = r * width + c
            if c + 1 < width:
                edges.append((ids(i), ids(i + 1)))
            if r + 1 < height:
                edges.append((ids(i), ids(i + width)))
    nodes = [ids(i) for i in range(width * height)]
    graph = CompactGraph.from_edges(edges, nodes=nodes)
    return DynamicOrientation(graph, seed=3)


class Twin:
    """An id whose ``repr`` is its name alone: distinct twins (and a
    :class:`Node` of the same name) share one ``repr``."""

    def __init__(self, name, tag):
        self.name = name
        self.tag = tag

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Twin) and vars(other) == vars(self)

    def __hash__(self):
        return hash((self.name, self.tag))


#: Names that break predicate P: "a" is a prefix of "a!", "a!" of "a!b"
#: and "c" of "c)", each followed by a character below ",".
_P_FAILING_NAMES = ("a", "a!", "a!b", "c", "c)", "b")


def _p_failing_id(i):
    """Id ``i`` of a family that fails P, five ids to each ``repr``."""
    name = _P_FAILING_NAMES[i % len(_P_FAILING_NAMES)]
    copy = i // len(_P_FAILING_NAMES)
    return Node(name) if copy == 0 else Twin(name, copy)


def _random_delta(engine, kind, rng, pool):
    """A valid delta of ``kind`` for ``engine``, or ``None`` if there is none.

    Joins take a dead id from ``pool`` or a base id that left.
    """
    overlay = engine._overlay
    ids = overlay.node_ids
    live = [ids[i] for i in overlay.live_node_indices()]
    if kind == "insert":
        if len(live) >= 2:
            u, v = rng.sample(live, 2)
            if not overlay.has_edge(u, v):
                return EdgeInsert(u, v)
    elif kind == "delete":
        keys = overlay.edge_keys()
        if keys:
            return EdgeDelete(*rng.choice(keys))
    elif kind == "join":
        dead = [x for x in pool + list(ids) if not overlay.has_node(x)]
        if dead:
            attach = rng.sample(live, min(len(live), rng.randrange(4)))
            return NodeJoin(rng.choice(dead), tuple(attach))
    elif len(live) > 4:
        return NodeLeave(rng.choice(live))
    return None


class TestMergePath:
    """Churned exports that merge the base CSR, each against the oracle."""

    def test_restored_mmap_base(self, tmp_path):
        graph = scale_layered_orientation(
            num_levels=8, width=60, edge_probability=0.05, seed=3
        )
        path = tmp_path / "base.rprosnp"
        save_state(DynamicOrientation(graph, seed=1), path)
        trace = churn_trace(graph, num_updates=240, seed=2, mix="mixed")
        with load_state(path) as engine:
            assert isinstance(engine._overlay.base.indptr, memoryview)
            for lo in range(0, len(trace), 8):
                engine.apply_batch(trace[lo : lo + 8])
            assert _has_tuple_ids(engine)
            assert_export_matches_oracle(engine)

    def test_base_id_leaves_and_rejoins(self):
        engine = _grid()
        engine.apply_batch([NodeLeave(7), NodeLeave(20), NodeJoin(7, (0, 13))])
        engine.apply(NodeJoin(20, (7,)))
        assert engine._overlay.base.num_nodes == len(engine._overlay.node_ids)
        assert_export_matches_oracle(engine)

    def test_base_edge_deleted_then_reinserted(self):
        engine = _grid()
        engine.apply_batch([EdgeDelete(0, 1), EdgeDelete(8, 14), EdgeInsert(1, 0)])
        engine.apply(EdgeInsert(14, 8))
        assert not engine._overlay.edge_alive[engine._overlay.base._csr_edge(0, 1)]
        assert_export_matches_oracle(engine)

    def test_str_joins_between_base_ids(self):
        engine = _grid(ids=lambda i: f"n{i:02d}")
        engine.apply_batch(
            [
                NodeJoin("n05a", ("n05", "n06")),
                NodeJoin("n1", ("n10",)),
                NodeJoin("m", ("n00", "n29")),
                NodeJoin("z", ()),
                NodeLeave("n11"),
                NodeJoin("n11!", ("n1", "n12")),
                EdgeInsert("n05a", "n29"),
            ]
        )
        assert_export_matches_oracle(engine)

    def test_every_edge_deleted(self):
        engine = _grid(width=3, height=3)
        keys = engine.solved_arrays()[0].edge_keys()
        engine.apply_batch([EdgeDelete(u, v) for u, v in keys])
        assert engine.num_edges == 0
        assert_export_matches_oracle(engine)
        graph, heads, load = engine.solved_arrays()
        assert list(graph.indptr) == [0] * 10 and not heads and list(load) == [0] * 9

    def test_ids_failing_p_merge_without_csr(self):
        # Node ids break predicate P, so inserted edges sort by key string;
        # the export still merges, with _csr refused.
        a, a_bang, b, c = Node("a"), Node("a!"), Node("b"), Node("c")
        engine = DynamicOrientation(
            CompactGraph.from_edges([(a, b), (a_bang, b), (a, c), (b, c)]), seed=2
        )
        engine.apply_batch([EdgeDelete(a, c), EdgeInsert(a_bang, c)])
        assert_export_matches_oracle(engine)

    def test_base_failing_p_holds_once_a_left(self):
        # With a gone, P holds on the live ids though not on the base.
        a, a_bang, b, c = Node("a"), Node("a!"), Node("b"), Node("c")
        engine = DynamicOrientation(
            CompactGraph.from_edges([(a, b), (a_bang, b), (a, c), (b, c)]), seed=2
        )
        engine.apply_batch([NodeLeave(a), EdgeInsert(a_bang, c)])
        assert _merged_export(engine)[0].lexicographic_reprs() is True
        assert_export_matches_oracle(engine)

    def test_join_that_breaks_p_merges_without_csr(self):
        # P holds on the base, but the joined a! follows its prefix a
        # with "!", which sorts before ",": the inserted edges of a! must
        # sort by key string, and still no _csr call is made.
        a, b, c = Node("a"), Node("b"), Node("c")
        engine = DynamicOrientation(
            CompactGraph.from_edges([(a, b), (b, c), (a, c)]), seed=2
        )
        assert engine._overlay.base.lexicographic_reprs()
        engine.apply(NodeJoin(Node("a!"), (b, c)))
        assert _merged_export(engine)[0].lexicographic_reprs() is False
        assert_export_matches_oracle(engine)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        updates=st.integers(1, 120),
        weights=st.lists(st.integers(0, 4), min_size=4, max_size=4).filter(any),
        str_ids=st.booleans(),
    )
    def test_random_delta_mixes(self, seed, updates, weights, str_ids):
        engine = _grid(ids=(lambda i: f"v{i}") if str_ids else None)
        graph = engine.solved_arrays()[0]
        mix = dict(zip(("insert", "delete", "join", "leave"), weights))
        trace = churn_trace(graph, num_updates=updates, seed=seed, mix=mix)
        for lo in range(0, len(trace), 8):
            engine.apply_batch(trace[lo : lo + 8])
        assert_export_matches_oracle(engine)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        updates=st.integers(1, 80),
        weights=st.lists(st.integers(0, 4), min_size=4, max_size=4).filter(any),
    )
    def test_random_delta_mixes_on_ids_failing_p(self, seed, updates, weights):
        engine = _grid(ids=_p_failing_id)
        assert not engine._overlay.base.lexicographic_reprs()
        rng = random.Random(seed)
        pool = [_p_failing_id(i) for i in range(30, 42)]
        pool += [Node(name) for name in ("a!!", "c))", "b!", "a ", "")]
        kinds = ("insert", "delete", "join", "leave")
        for _ in range(updates):
            delta = _random_delta(engine, rng.choices(kinds, weights)[0], rng, pool)
            if delta is not None:
                engine.apply(delta)
        assert_export_matches_oracle(engine, oracle=_rebuilt_export)


class TestSnapshotMemory:
    def test_save_state_peak_stays_near_the_file_size(self, tmp_path):
        # The pinned churned 10k engine.  Rebuilding the live graph
        # through _from_index_pairs peaked at ~4.7x the file size; the
        # merge holds the sections plus a few remap arrays (~1.8x).
        graph = scale_layered_orientation(
            num_levels=50, width=200, edge_probability=0.01, seed=11
        )
        engine = _churned(graph, 400)
        path = tmp_path / "state.rprosnp"
        tracemalloc.start()
        try:
            save_state(engine, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * os.path.getsize(path)


class TestCompactEdgeIndex:
    def test_missing_edges_raise_key_error(self):
        graph = CompactGraph.from_edges([(1, 2), (2, 3)], nodes=[4])
        assert graph.edge_index(3, 2) == graph.edge_keys().index((2, 3))
        for u, v in [(1, 3), (1, 4), (1, 99), (98, 99)]:
            with pytest.raises(KeyError):
                graph.edge_index(u, v)

    def test_self_loop_raises_like_edge_key(self):
        graph = CompactGraph.from_edges([(1, 2)])
        with pytest.raises(OrientationError):
            graph.edge_index(1, 1)

    def test_no_per_edge_map_is_kept(self):
        graph = CompactGraph.from_edges([(1, 2), (2, 3)])
        graph.edge_index(1, 2)
        assert not hasattr(graph, "_edge_index")
        assert "edge_keys" not in graph.derived
