"""Batched churn application (:meth:`DynamicOrientation.apply_batch`).

The coalescing contract the serving layer is built on:

* a one-delta batch is *identical* (stats and state) to :meth:`apply`;
* compact and dict backends agree bit-for-bit on every batch;
* an empty batch is a strict no-op (update counter untouched);
* a failing delta re-stabilizes the applied prefix before raising, and
  leaves the engine exactly as a batch of just that prefix would —
  update counter included;
* :meth:`solved_arrays` → :meth:`from_solved_arrays` round-trips the
  full serving state, including seed-stream continuity for future deltas.
"""

from __future__ import annotations

import pytest

from repro.core.orientation import (
    BatchStats,
    DynamicOrientation,
    EdgeDelete,
    EdgeInsert,
    NodeJoin,
    NodeLeave,
)
from repro.graphs.compact import DeltaError
from repro.workloads import churn_smoke, churn_smoke_trace, churn_trace
from repro.workloads.scenarios import sensor_network_orientation

pytestmark = pytest.mark.integration


def _engine(seed=5, backend="compact"):
    return DynamicOrientation(churn_smoke(compact=True), seed=seed, backend=backend)


def _trace(n=60):
    return list(churn_smoke_trace(churn_smoke(compact=True)))[:n]


def _state(dynamic):
    graph, heads, load = dynamic.solved_arrays()
    return (
        tuple(graph.node_ids),
        list(graph.edge_u),
        list(graph.edge_v),
        heads,
        load,
        sorted(map(repr, dynamic.unhappy_edges())),
    )


class TestBatchSemantics:
    def test_singleton_batches_equal_sequential_apply(self):
        batched, sequential = _engine(), _engine()
        for delta in _trace():
            batch_stats = batched.apply_batch([delta])
            update_stats = sequential.apply(delta)
            assert batch_stats.update_seed == update_stats.update_seed
            assert batch_stats.repair == update_stats.repair
            assert batch_stats.frontier_nodes == update_stats.frontier_nodes
        assert _state(batched) == _state(sequential)
        assert batched.updates_applied == sequential.updates_applied

    def test_compact_and_dict_agree_on_batches(self):
        fast, reference = _engine(backend="compact"), _engine(backend="dict")
        trace = _trace(80)
        boundaries = [0, 7, 8, 8, 20, 45, 80]  # includes an empty chunk
        for lo, hi in zip(boundaries, boundaries[1:]):
            chunk = trace[lo:hi]
            assert fast.apply_batch(chunk) == reference.apply_batch(chunk)
            assert fast.loads() == reference.loads()
            assert not fast.unhappy_edges() and not reference.unhappy_edges()

    def test_batch_seed_is_last_deltas_stream_seed(self):
        engine = _engine(seed=9)
        trace = _trace(10)
        stats = engine.apply_batch(trace)
        assert isinstance(stats, BatchStats)
        assert stats.num_deltas == len(trace)
        assert stats.update_seed == 9 * 1_000_003 + len(trace) - 1
        assert engine.updates_applied == len(trace)
        # The next batch continues where the counter left off.
        stats2 = engine.apply_batch([_trace(11)[10]])
        assert stats2.update_seed == 9 * 1_000_003 + len(trace)

    def test_empty_batch_is_a_strict_noop(self):
        engine = _engine()
        before = _state(engine)
        stats = engine.apply_batch([])
        assert stats == BatchStats(num_deltas=0, update_seed=None)
        assert engine.updates_applied == 0
        assert _state(engine) == before

    def test_failing_delta_restabilizes_the_applied_prefix(self):
        for backend in ("compact", "dict"):
            engine = _engine(backend=backend)
            good = EdgeInsert(("churn", 0), (0, 2))
            bad = EdgeDelete(("nope", 1), ("nope", 2))
            join = NodeJoin(("churn", 0), [(0, 0), (0, 1)])
            with pytest.raises(DeltaError):
                engine.apply_batch([join, good, bad])
            # The prefix landed and the state is stable again.
            assert engine.load_of(("churn", 0)) >= 0
            assert not engine.unhappy_edges(), backend

    def test_delete_then_insert_same_edge_in_one_batch(self):
        engine, reference = _engine(), _engine()
        graph = churn_smoke(compact=True)
        u, v = graph.node_ids[graph.edge_u[0]], graph.node_ids[graph.edge_v[0]]
        batch = [EdgeDelete(u, v), EdgeInsert(u, v)]
        stats = engine.apply_batch(batch)
        assert stats.edges_removed == 1 and stats.edges_inserted == 1
        # Bit-for-bit against the dict reference applying the same batch.
        ref = DynamicOrientation(graph, seed=5, backend="dict")
        assert ref.apply_batch(batch) == stats
        assert ref.loads() == engine.loads()
        # The edge survived the round trip on both.
        assert engine.head_of(u, v) in (u, v)
        assert ref.head_of(u, v) in (u, v)
        del reference

    def test_node_leave_then_queries_raise_cleanly(self):
        engine = _engine()
        engine.apply_batch([NodeJoin(("x",), [(0, 0)])])
        assert engine.load_of(("x",)) == 0 or engine.load_of(("x",)) == 1
        engine.apply_batch([NodeLeave(("x",))])
        with pytest.raises(DeltaError):
            engine.load_of(("x",))
        assert not engine.unhappy_edges()


class TestRejectedUpdates:
    """A rejected delta counts nothing that was not applied."""

    @pytest.mark.parametrize("backend", ["compact", "dict"])
    @pytest.mark.parametrize("seed", [None, 77])
    # At index 4 the prefix's repair outcome depends on its seed.
    @pytest.mark.parametrize("index", [1, 4])
    def test_rejected_batch_equals_a_batch_of_its_prefix(self, backend, seed, index):
        engine, twin = _engine(backend=backend), _engine(backend=backend)
        warmup = _trace(12)
        engine.apply_batch(warmup)
        twin.apply_batch(warmup)
        prefix = _trace(12 + index)[12:]
        bad = EdgeDelete(("nope", 1), ("nope", 2))
        with pytest.raises(DeltaError) as excinfo:
            engine.apply_batch(prefix + [bad] + _trace(20)[15:], seed=seed)
        assert excinfo.value.index == index
        twin.apply_batch(prefix, seed=seed)
        assert engine.updates_applied == twin.updates_applied == 12 + index
        assert engine.loads() == twin.loads()
        assert _state(engine) == _state(twin)
        # The seed stream continues from the applied count on both.
        nxt = _trace(21)[20]
        assert engine.apply(nxt) == twin.apply(nxt)
        assert _state(engine) == _state(twin)

    @pytest.mark.parametrize("backend", ["compact", "dict"])
    def test_rejected_apply_does_not_advance_the_counter(self, backend):
        engine = _engine(backend=backend)
        engine.apply_batch(_trace(5))
        before = _state(engine)
        with pytest.raises(DeltaError):
            engine.apply(EdgeDelete(("nope", 1), ("nope", 2)))
        assert engine.updates_applied == 5
        assert _state(engine) == before


class TestSolvedArraysRoundTrip:
    @pytest.mark.parametrize("backend", ["compact", "dict"])
    def test_round_trip_preserves_state_and_future(self, backend):
        engine = _engine(backend=backend)
        trace = _trace(60)
        engine.apply_batch(trace[:40])
        graph, heads, load = engine.solved_arrays()
        clone = DynamicOrientation.from_solved_arrays(
            graph,
            heads,
            load,
            seed=engine.seed,
            updates_applied=engine.updates_applied,
        )
        assert clone.loads() == engine.loads()
        # Seed-stream continuity: the same future replays identically.
        for delta in trace[40:]:
            assert clone.apply(delta) == engine.apply(delta)
        assert _state(clone) == _state(engine)

    def test_pristine_engine_round_trips_without_copy(self):
        graph = sensor_network_orientation(
            num_nodes=40, max_degree=6, seed=3, compact=True
        )
        engine = DynamicOrientation(graph, seed=3)
        got_graph, heads, load = engine.solved_arrays()
        assert got_graph is graph  # pristine → the base CSR is returned as-is
        clone = DynamicOrientation.from_solved_arrays(graph, heads, load, seed=3)
        assert clone.loads() == engine.loads()

    def test_from_solved_arrays_validates(self):
        graph = sensor_network_orientation(
            num_nodes=30, max_degree=5, seed=1, compact=True
        )
        engine = DynamicOrientation(graph, seed=1)
        _, heads, load = engine.solved_arrays()
        with pytest.raises(ValueError):
            DynamicOrientation.from_solved_arrays(graph, heads[:-1], load)
        bad_load = list(load)
        if bad_load:
            bad_load[0] += 1
        with pytest.raises(ValueError):
            DynamicOrientation.from_solved_arrays(graph, heads, bad_load)
        bad_heads = list(heads)
        bad_heads[0] = graph.num_nodes + 5
        with pytest.raises(ValueError):
            DynamicOrientation.from_solved_arrays(graph, bad_heads, None)

    def test_validate_flag_rejects_unstable_heads(self):
        graph = sensor_network_orientation(
            num_nodes=30, max_degree=5, seed=2, compact=True
        )
        engine = DynamicOrientation(graph, seed=2)
        _, heads, _ = engine.solved_arrays()
        # Pile every edge of node 0's neighbourhood onto one endpoint until
        # the orientation is unstable, keeping load consistent with heads.
        bad_heads = list(heads)
        start, end = graph.indptr[0], graph.indptr[1]
        for slot in range(start, end):
            bad_heads[graph.slot_edge[slot]] = 0
        if engine.unhappy_edges() == [] and end - start >= 3:
            with pytest.raises(ValueError):
                DynamicOrientation.from_solved_arrays(graph, bad_heads, None)
            # validate=False lets the same arrays through.
            clone = DynamicOrientation.from_solved_arrays(
                graph, bad_heads, None, validate=False
            )
            assert clone.load_of(graph.node_ids[0]) == end - start


class TestBatchTraceFamilies:
    @pytest.mark.parametrize("mix", ["mixed", "arrivals", "failures"])
    def test_chunked_equals_dict_reference_across_mixes(self, mix):
        instance = sensor_network_orientation(
            num_nodes=30, max_degree=6, seed=7, compact=True
        )
        trace = list(
            churn_trace(instance, num_updates=60, seed=17, mix=mix)
        )
        fast = DynamicOrientation(instance, seed=7, backend="compact")
        reference = DynamicOrientation(instance, seed=7, backend="dict")
        for lo in range(0, len(trace), 9):
            chunk = trace[lo : lo + 9]
            assert fast.apply_batch(chunk) == reference.apply_batch(chunk)
        assert fast.loads() == reference.loads()
        assert not fast.unhappy_edges()
