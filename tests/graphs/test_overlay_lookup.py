"""Edge lookup of :class:`DeltaOverlayGraph`: CSR bisect plus inserted-edge dict.

Base edges are found by bisecting the base CSR row and checking
``edge_alive``; only inserted edges are kept in a dict.  These cases pin
the lookup through every transition an edge can go through: deleted,
re-inserted, deleted again, and severed by a node leave and rejoin.
"""

from __future__ import annotations

import random

import pytest

from repro.core.orientation import (
    DynamicOrientation,
    EdgeDelete,
    EdgeInsert,
    NodeJoin,
    NodeLeave,
    ScratchDynamicOrientation,
)
from repro.core.orientation.problem import OrientationError, edge_key
from repro.graphs.compact import CompactGraph, DeltaError, DeltaOverlayGraph

EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4), (4, 5)]


def _overlay():
    return DeltaOverlayGraph(CompactGraph.from_edges(EDGES))


class TestReinsert:
    def test_delete_then_reinsert_returns_the_new_index(self):
        overlay = _overlay()
        old = overlay.edge_index(2, 1)
        assert overlay.remove_edge(1, 2) == old
        assert not overlay.has_edge(1, 2)
        new = overlay.add_edge(2, 1)
        assert new >= overlay.base.num_edges
        assert overlay.edge_index(1, 2) == overlay.edge_index(2, 1) == new
        assert not overlay.edge_alive[old]

    def test_delete_the_reinserted_edge(self):
        overlay = _overlay()
        overlay.remove_edge(0, 2)
        again = overlay.add_edge(0, 2)
        assert overlay.remove_edge(2, 0) == again
        assert not overlay.has_edge(0, 2)
        with pytest.raises(DeltaError, match=r"no live edge \(0, 2\)"):
            overlay.edge_index(0, 2)
        third = overlay.add_edge(0, 2)
        assert third != again and overlay.edge_index(0, 2) == third

    def test_head_of_follows_the_reinserted_edge(self):
        graph = CompactGraph.from_edges(EDGES)
        engine = DynamicOrientation(graph, seed=4)
        reference = ScratchDynamicOrientation(graph, seed=4)
        for delta in [EdgeDelete(3, 4), EdgeInsert(4, 3), EdgeDelete(1, 4)]:
            assert engine.apply(delta) == reference.apply(delta)
            for u, v in reference.orientation().problem.edges:
                assert engine.head_of(u, v) == reference.head_of(u, v)
                assert engine.head_of(v, u) == reference.head_of(u, v)
        with pytest.raises(DeltaError):
            engine.head_of(1, 4)


class TestDuplicates:
    @pytest.mark.parametrize("u, v", [(2, 3), (3, 2)])
    def test_live_base_edge_is_a_duplicate_in_both_orders(self, u, v):
        overlay = _overlay()
        with pytest.raises(DeltaError, match=r"duplicate edge \(2, 3\)"):
            overlay.add_edge(u, v)
        assert overlay.num_live_edges == len(EDGES)

    def test_live_inserted_edge_is_a_duplicate_in_both_orders(self):
        overlay = _overlay()
        overlay.add_edge(5, 0)
        for u, v in [(0, 5), (5, 0)]:
            with pytest.raises(DeltaError, match="duplicate edge"):
                overlay.add_edge(u, v)


class TestNodeLeaveAndRejoin:
    def test_rejoin_onto_the_same_neighbours(self):
        overlay = _overlay()
        base_edges = {n: overlay.edge_index(1, n) for n in (0, 2, 4)}
        removed = overlay.remove_node(1)
        assert sorted(removed) == sorted(base_edges.values())
        for n in (0, 2, 4):
            assert not overlay.has_edge(1, n)
        overlay.add_node(1)
        for n in (0, 2, 4):
            e = overlay.add_edge(n, 1)
            assert e >= overlay.base.num_edges
            assert overlay.edge_index(1, n) == e
            assert not overlay.edge_alive[base_edges[n]]
        assert overlay.degrees[overlay.index_of[1]] == 3
        assert overlay.num_live_edges == len(EDGES)

    def test_engine_rejoin_matches_the_reference(self):
        graph = CompactGraph.from_edges(EDGES)
        engine = DynamicOrientation(graph, seed=9)
        reference = ScratchDynamicOrientation(graph, seed=9)
        for delta in [NodeLeave(4), NodeJoin(4, (3, 1, 5)), EdgeDelete(4, 1)]:
            assert engine.apply(delta) == reference.apply(delta)
            assert engine.loads() == reference.loads()
        assert engine.head_of(3, 4) == reference.head_of(3, 4)
        assert engine.head_of(5, 4) == reference.head_of(4, 5)


class TestErrors:
    def test_unknown_node(self):
        overlay = _overlay()
        assert not overlay.has_edge(0, 99)
        with pytest.raises(DeltaError, match=r"no live edge \(0, 99\)"):
            overlay.edge_index(99, 0)
        with pytest.raises(DeltaError, match="unknown node 99"):
            overlay.add_edge(0, 99)

    def test_departed_node_has_no_edges(self):
        overlay = _overlay()
        overlay.remove_node(5)
        assert not overlay.has_edge(4, 5)
        with pytest.raises(DeltaError, match="unknown node 5"):
            overlay.add_edge(4, 5)

    @pytest.mark.parametrize("node", [2, 99])
    def test_self_loop_raises_orientation_error(self, node):
        overlay = _overlay()
        with pytest.raises(OrientationError, match="self-loop"):
            overlay.has_edge(node, node)
        with pytest.raises(OrientationError, match="self-loop"):
            overlay.edge_index(node, node)
        with pytest.raises(OrientationError, match="self-loop"):
            overlay.add_edge(node, node)

    @pytest.mark.parametrize("self_loop", [EdgeInsert(2, 2), EdgeDelete(2, 2)])
    def test_engine_rejects_self_loop_as_delta_error(self, self_loop):
        # The engine checks before mutating, so it and its scratch oracle
        # raise the same batch-indexed DeltaError, keep the applied
        # prefix, and stay stable and in agreement.
        graph = CompactGraph.from_edges(EDGES)
        batch = [EdgeDelete(4, 5), self_loop, EdgeInsert(0, 3)]
        errors = []
        engines = []
        for engine_cls in (DynamicOrientation, ScratchDynamicOrientation):
            engine = engine_cls(graph, seed=2)
            with pytest.raises(DeltaError, match="self-loop on 2") as excinfo:
                engine.apply_batch(batch)
            errors.append((str(excinfo.value), excinfo.value.index))
            engines.append(engine)
        assert errors[0] == errors[1] == ("self-loop on 2 is not allowed", 1)
        engine, reference = engines
        assert engine.num_edges == reference.num_edges == len(EDGES) - 1
        with pytest.raises(DeltaError):
            engine.head_of(4, 5)
        assert engine.loads() == reference.loads()
        assert not engine.unhappy_edges() and not reference.unhappy_edges()
        for either in engines:
            with pytest.raises(DeltaError, match="self-loop"):
                either.apply(self_loop)
            with pytest.raises(DeltaError, match="self-loop"):
                either.head_of(2, 2)

    @pytest.mark.parametrize("backend", ["compact", "dict"])
    @pytest.mark.parametrize("self_loop", [EdgeInsert(3, 3), EdgeDelete(3, 3)])
    def test_leading_self_loop_leaves_the_engine_untouched(self, backend, self_loop):
        graph = CompactGraph.from_edges(EDGES)
        engine_cls = {"compact": DynamicOrientation, "dict": ScratchDynamicOrientation}
        engine = engine_cls[backend](graph, seed=2)
        heads = {(u, v): engine.head_of(u, v) for u, v in EDGES}
        before = (engine.num_edges, engine.loads())
        with pytest.raises(DeltaError, match="self-loop on 3") as excinfo:
            engine.apply_batch([self_loop, EdgeInsert(0, 3)])
        # Nothing landed, so the update counter does not move either.
        assert excinfo.value.index == 0
        assert (engine.num_edges, engine.loads()) == before
        assert {(u, v): engine.head_of(u, v) for u, v in EDGES} == heads
        assert engine.updates_applied == 0
        assert not engine.unhappy_edges()


def test_lookup_matches_a_dict_model_under_random_churn():
    rng = random.Random(7)
    nodes = [("n", i) for i in range(30)]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    graph = CompactGraph.from_edges(rng.sample(pairs, 80), nodes=nodes)
    overlay = DeltaOverlayGraph(graph)
    model = {key: e for e, key in enumerate(graph.edge_keys())}
    live_nodes = set(nodes)
    for _ in range(600):
        roll = rng.random()
        if roll < 0.4 and model:
            key = rng.choice(sorted(model))
            assert overlay.remove_edge(*reversed(key)) == model.pop(key)
        elif roll < 0.8:
            u, v = rng.sample(sorted(live_nodes), 2)
            key = edge_key(u, v)
            if key in model:
                with pytest.raises(DeltaError):
                    overlay.add_edge(u, v)
            else:
                model[key] = overlay.add_edge(u, v)
        elif roll < 0.9 and len(live_nodes) > 5:
            node = rng.choice(sorted(live_nodes))
            removed = overlay.remove_node(node)
            dead = sorted(k for k in model if node in k)
            assert sorted(removed) == sorted(model.pop(k) for k in dead)
            live_nodes.discard(node)
        else:
            node = rng.choice(nodes)
            if node not in live_nodes:
                overlay.add_node(node)
                live_nodes.add(node)
        for key, e in model.items():
            assert overlay.edge_index(*key) == e
            assert overlay.edge_index(*reversed(key)) == e
        for u, v in rng.sample(pairs, 20):
            assert overlay.has_edge(u, v) == (edge_key(u, v) in model)
    assert overlay.num_live_edges == len(model)
