"""End-to-end serving tests: queries, coalescing, snapshots, shutdown.

Runs a real :class:`ServerThread` + :class:`ServeClient` pair over
loopback TCP for every test, so the asyncio plumbing, the frame codec,
and the coalescing updater are all exercised exactly as deployed.  The
coalescing-semantics cases assert the served state bit-for-bit against a
local :class:`DynamicOrientation` applying the identical uncoalesced
trace — the server must add *no* semantics of its own.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core.orientation import (
    DynamicOrientation,
    EdgeDelete,
    EdgeInsert,
    NodeJoin,
    NodeLeave,
)
from repro.graphs.compact import DeltaError
from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread, connect
from repro.serve.protocol import delta_to_wire
from repro.workloads import churn_smoke, churn_smoke_trace

pytestmark = pytest.mark.integration


def _instance():
    return churn_smoke(compact=True)


def _engine(instance=None, seed=5):
    return DynamicOrientation(instance or _instance(), seed=seed)


@pytest.fixture()
def served():
    """A (server thread, client, engine) triple over a fresh solved engine."""
    engine = _engine()
    with ServerThread(engine, ServeConfig()) as thread:
        with connect(thread.address) as client:
            yield thread, client, engine


class TestQueries:
    def test_ping_and_stats(self, served):
        _, client, engine = served
        assert client.ping()
        stats = client.stats()
        assert stats["num_nodes"] == engine.num_nodes
        assert stats["num_edges"] == engine.num_edges
        assert stats["updates_applied"] == 0
        assert stats["backend"] == "compact"
        assert stats["coalescing_ratio"] is None

    def test_point_queries_match_the_engine(self, served):
        _, client, engine = served
        graph = engine.solved_arrays()[0]
        for e in range(0, graph.num_edges, graph.num_edges // 7):
            u = graph.node_ids[graph.edge_u[e]]
            v = graph.node_ids[graph.edge_v[e]]
            assert client.assignment_of(u, v) == engine.head_of(u, v)
            assert client.load_of(u) == engine.load_of(u)

    def test_unknown_node_is_an_error_not_a_crash(self, served):
        _, client, engine = served
        with pytest.raises(ServeError):
            client.load_of(("no-such-node", 1))
        with pytest.raises(ServeError):
            client.assignment_of(("a", 1), ("b", 2))
        node = engine.solved_arrays()[0].node_ids[0]
        with pytest.raises(ServeError, match="self-loop"):
            client.assignment_of(node, node)
        assert client.ping()  # connection survives the error

    @pytest.mark.parametrize(
        "request_",
        [
            {"op": "load-of", "node": {"a": 1}},
            {"op": "assignment-of", "u": [0, {"a": 1}], "v": [0, 1]},
        ],
    )
    def test_json_object_node_id_fails_only_its_request(self, served, request_):
        _, client, _ = served
        response = client.request(request_)
        assert response["ok"] is False and "JSON object" in response["error"]
        assert client.ping()  # the connection survives

    def test_unknown_op_is_an_error(self, served):
        _, client, _ = served
        response = client.request({"op": "frobnicate"})
        assert response["ok"] is False and "unknown op" in response["error"]

    def test_tuple_node_ids_round_trip_the_wire(self, served):
        _, client, engine = served
        node = engine.solved_arrays()[0].node_ids[0]
        assert isinstance(node, tuple)
        assert client.load_of(node) == engine.load_of(node)


class TestUpdates:
    def test_updates_match_local_apply_batch_bit_for_bit(self, served):
        _, client, engine = served
        reference = _engine()
        trace = list(churn_smoke_trace(_instance()))[:45]
        for lo in range(0, 45, 9):
            chunk = trace[lo : lo + 9]
            receipt = client.update(chunk)
            reference.apply_batch(chunk)
            assert receipt["applied"] == len(chunk)
        assert engine.loads() == reference.loads()
        assert engine.updates_applied == reference.updates_applied == 45
        assert not engine.unhappy_edges()

    def test_delete_then_insert_same_edge_in_one_request(self, served):
        _, client, engine = served
        reference = _engine()
        graph = _instance()
        u = graph.node_ids[graph.edge_u[0]]
        v = graph.node_ids[graph.edge_v[0]]
        batch = [EdgeDelete(u, v), EdgeInsert(u, v)]
        receipt = client.update(batch)
        assert receipt["applied"] == 2
        reference.apply_batch(batch)
        assert engine.loads() == reference.loads()
        assert client.assignment_of(u, v) == reference.head_of(u, v)

    def test_empty_batch_is_a_served_noop(self, served):
        _, client, engine = served
        before = engine.loads()
        receipt = client.update([])
        assert receipt["applied"] == 0
        assert receipt["updates_applied"] == 0
        assert engine.loads() == before
        assert client.stats()["updates_applied"] == 0

    def test_node_leave_racing_queued_queries(self, served):
        _, client, engine = served
        node = ("racer", 1)
        client.update([NodeJoin(node, ((0, 0), (0, 1)))])
        assert client.load_of(node) >= 0

        errors = []
        loads = []

        def hammer():
            with connect(served[0].address) as c2:
                for _ in range(50):
                    try:
                        loads.append(c2.load_of(node))
                    except ServeError as exc:
                        errors.append(str(exc))

        racer = threading.Thread(target=hammer)
        racer.start()
        client.update([NodeLeave(node)])
        racer.join(timeout=30)
        assert not racer.is_alive()
        # Every racing query either saw the live node or got a clean error;
        # afterwards the node is gone and the state is stable.
        assert all(value >= 0 for value in loads)
        with pytest.raises(ServeError):
            client.load_of(node)
        assert not engine.unhappy_edges()

    def test_invalid_delta_fails_the_request_cleanly(self, served):
        _, client, engine = served
        with pytest.raises(ServeError):
            client.update([EdgeDelete(("ghost", 1), ("ghost", 2))])
        assert client.ping()
        assert not engine.unhappy_edges()

    def test_self_loop_insert_leaves_the_updater_running(self, served):
        _, client, engine = served
        node = engine.solved_arrays()[0].node_ids[0]
        response = client.request(
            {"op": "update", "deltas": [delta_to_wire(EdgeInsert(node, node))]}
        )
        assert response["ok"] is False and "self-loop" in response["error"]
        assert response["applied"] == 0
        # A later update on the same connection is still answered.
        joined = ("after-loop", 1)
        receipt = client.update([NodeJoin(joined, (node,))])
        assert receipt["ok"] is True and receipt["applied"] == 1
        assert client.load_of(joined) == engine.load_of(joined)
        assert engine.is_stable()

    def test_json_object_in_a_delta_leaves_the_updater_running(self, served):
        _, client, engine = served
        response = client.request(
            {"op": "update", "deltas": [{"kind": "node-leave", "node": {"a": 1}}]}
        )
        assert response["ok"] is False and "JSON object" in response["error"]
        node = ("after", 1)
        receipt = client.update([NodeJoin(node, ((0, 0),))])
        assert receipt["applied"] == 1
        assert client.load_of(node) == engine.load_of(node)

    def test_failed_batch_restabilizes_its_applied_prefix(self, served):
        _, client, engine = served
        node = ("prefix", 1)
        with pytest.raises(ServeError):
            client.update(
                [
                    NodeJoin(node, ((0, 0),)),
                    EdgeDelete(("ghost", 1), ("ghost", 2)),
                ]
            )
        # The join landed before the failure and was re-stabilized.
        assert client.load_of(node) >= 0
        assert not engine.unhappy_edges()


class TestCoalescing:
    def test_concurrent_updates_coalesce(self):
        engine = _engine()
        trace = list(churn_smoke_trace(_instance()))[:64]
        config = ServeConfig(max_batch=256, coalesce_ms=20.0)
        with ServerThread(engine, config) as thread:
            receipts = []
            lock = threading.Lock()

            def submit(chunk):
                with connect(thread.address) as client:
                    receipt = client.update(chunk)
                    with lock:
                        receipts.append(receipt)

            threads = [
                threading.Thread(target=submit, args=(trace[lo : lo + 8],))
                for lo in range(0, 64, 8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            with connect(thread.address) as client:
                stats = client.stats()
        assert stats["updates_applied"] == 64
        assert stats["counters"]["update_requests"] == 8
        # The gathering window must have merged at least one pair of
        # requests into a shared re-stabilization.
        assert stats["counters"]["batches"] < 8
        assert stats["coalescing_ratio"] > 8.0
        assert any(r["batch_requests"] > 1 for r in receipts)
        assert not engine.unhappy_edges()

    def test_max_batch_caps_one_drain(self):
        engine = _engine()
        config = ServeConfig(max_batch=4, coalesce_ms=0.0)
        trace = list(churn_smoke_trace(_instance()))[:12]
        with ServerThread(engine, config) as thread:
            with connect(thread.address) as client:
                receipt = client.update(trace)
        # A single oversized request is still applied whole, in one batch.
        assert receipt["applied"] == 12
        assert receipt["batch_requests"] == 1
        assert engine.updates_applied == 12


def _coalesced(thread, chunks):
    """Submit ``chunks`` as update requests that share one queue drain.

    All requests are dispatched from one loop callback, so each is queued
    before the updater wakes: the drain picks them up together, in order.
    """
    from repro.serve import delta_to_wire

    async def submit():
        return await asyncio.gather(
            *(
                thread.server._dispatch(
                    {"op": "update", "deltas": [delta_to_wire(d) for d in chunk]}
                )
                for chunk in chunks
            )
        )

    future = asyncio.run_coroutine_threadsafe(submit(), thread._loop)
    return [response for response, _ in future.result(timeout=30)]


def _arrays(engine):
    graph, heads, load = engine.solved_arrays()
    return graph.node_ids, list(graph.edge_u), list(graph.edge_v), heads, load


def _reference_load(reference, failing, after, node):
    """Replay the server's two engine calls on ``reference``; load of ``node``.

    The server first applies every rider's deltas as one batch, which fails
    part-way, then the riders after the failing one as a second batch.
    """
    with pytest.raises(DeltaError):
        reference.apply_batch(failing)
    reference.apply_batch(after)
    return reference.load_of(node)


class TestPerRiderReceipts:
    def test_valid_rider_succeeds_beside_an_invalid_one(self):
        engine, reference = _engine(), _engine()
        node = ("rider", 1)
        valid = [NodeJoin(node, ((0, 0), (0, 1)))]
        invalid = [EdgeDelete(("ghost", 1), ("ghost", 2))]
        with ServerThread(engine, ServeConfig()) as thread:
            ok, failed = _coalesced(thread, [valid, invalid])
            with connect(thread.address) as client:
                served_load = client.load_of(node)
                stats = client.stats()
        assert ok["ok"] is True and ok["applied"] == 1
        assert ok["batch_requests"] == 2 and ok["batch_deltas"] == 2
        assert failed["ok"] is False and failed["applied"] == 0
        assert "no live edge" in failed["error"]
        # The served state is the valid rider's, re-stabilized.
        with pytest.raises(DeltaError) as excinfo:
            reference.apply_batch(valid + invalid)
        assert excinfo.value.index == 1
        assert _arrays(engine) == _arrays(reference)
        assert served_load == reference.load_of(node)
        assert stats["counters"]["errors"] == 1
        assert stats["counters"]["deltas_applied"] == 1
        assert stats["counters"]["batches"] == 1
        assert engine.is_stable()

    def test_receipt_counts_only_the_applied_deltas(self):
        engine = _engine()
        valid = [NodeJoin(("rider", 1), ((0, 0),)), NodeJoin(("rider", 2), ())]
        invalid = [NodeLeave(("ghost", 1)), NodeJoin(("rider", 3), ())]
        with ServerThread(engine, ServeConfig()) as thread:
            ok, failed = _coalesced(thread, [valid, invalid])
            with connect(thread.address) as client:
                stats = client.stats()
        assert ok["ok"] is True and failed["ok"] is False
        assert ok["batch_deltas"] == 4
        # The first rider's receipt reports the engine's count after the
        # batch, which only the two applied deltas advanced.
        assert ok["updates_applied"] == stats["counters"]["deltas_applied"] == 2
        assert stats["updates_applied"] == engine.updates_applied == 2

    def test_riders_after_the_failure_run_as_their_own_batch(self):
        engine, reference = _engine(), _engine()
        first = [NodeJoin(("r", 1), ((0, 0),))]
        middle = [
            NodeJoin(("r", 2), ((0, 1),)),
            NodeLeave(("ghost", 9)),
            NodeJoin(("r", 3), ((0, 2),)),
        ]
        last = [NodeJoin(("r", 4), ((0, 3),)), EdgeInsert(("r", 4), ("r", 1))]
        with ServerThread(engine, ServeConfig()) as thread:
            a, b, c = _coalesced(thread, [first, middle, last])
            with connect(thread.address) as client:
                stats = client.stats()
                assert client.load_of(("r", 2)) == _reference_load(
                    reference, first + middle + last, last, ("r", 2)
                )
                # The failing rider's delta after the rejected one never ran.
                with pytest.raises(ServeError):
                    client.load_of(("r", 3))
        assert a["ok"] is True and a["batch_requests"] == 3
        assert b["ok"] is False and b["applied"] == 1
        assert c["ok"] is True and c["applied"] == 2
        assert c["batch_requests"] == 1 and c["batch_deltas"] == 2
        assert _arrays(engine) == _arrays(reference)
        assert stats["updates_applied"] == reference.updates_applied
        assert stats["counters"]["batches"] == 2
        assert stats["counters"]["errors"] == 1
        assert stats["counters"]["deltas_applied"] == 4
        assert engine.is_stable()


class TestSnapshotOp:
    def test_snapshot_then_restore_serves_identically(self, served, tmp_path):
        from repro.serve import load_state

        _, client, engine = served
        trace = list(churn_smoke_trace(_instance()))[:30]
        client.update(trace)
        path = tmp_path / "served.rprosnp"
        receipt = client.snapshot(path)
        assert receipt["bytes"] > 0
        restored = load_state(path)
        with ServerThread(restored, ServeConfig()) as thread2:
            with connect(thread2.address) as client2:
                assert client2.stats()["updates_applied"] == 30
                graph = engine.solved_arrays()[0]
                u = graph.node_ids[graph.edge_u[0]]
                v = graph.node_ids[graph.edge_v[0]]
                assert client2.assignment_of(u, v) == client.assignment_of(u, v)
                assert client2.load_of(u) == client.load_of(u)

    def test_snapshot_to_bad_path_is_an_error(self, served, tmp_path):
        _, client, _ = served
        with pytest.raises(ServeError):
            client.snapshot(tmp_path / "missing-dir" / "x.rprosnp")
        assert client.ping()


class TestLifecycle:
    def test_shutdown_op_stops_the_server(self):
        engine = _engine()
        thread = ServerThread(engine, ServeConfig()).start()
        with connect(thread.address) as client:
            response = client.shutdown()
            assert response["stopping"]
        thread.stop()
        assert not thread._thread.is_alive()
        with pytest.raises(OSError):
            ServeClient(thread.address[0], thread.address[1], timeout=2).ping()

    def test_several_clients_share_one_server(self, served):
        thread, client, engine = served
        others = [connect(thread.address) for _ in range(4)]
        try:
            assert all(c.ping() for c in others)
            assert {c.stats()["num_nodes"] for c in others} == {engine.num_nodes}
        finally:
            for c in others:
                c.close()
        assert client.ping()
