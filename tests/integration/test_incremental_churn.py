"""Cross-validation of the incremental engine against scratch recompute.

The correctness bar of :mod:`repro.core.orientation.incremental`: after
*every* update of *every* trace, the compact frontier-local
re-stabilization must be bit-for-bit identical to solving the mutated
instance from scratch on the dict reference path — same orientation,
same loads, same unhappy-edge sets, same per-update
:class:`~repro.core.orientation.incremental.UpdateStats` (including the
embedded :class:`~repro.core.orientation.repair.RepairRunStats`).

This suite drives 50+ seeded mixed insert/delete/join/leave traces per
scenario family (200+ traces, ~5,000 compared updates) through both
backends in lockstep, plus unit coverage of the
:class:`~repro.graphs.compact.DeltaOverlayGraph` substrate and the
engine's validation/edge-case behaviour.  Conventions follow
``test_compact_cross_validation.py``: seeds grouped into chunks per
pytest case, instance families shared with the named workloads.
"""

from __future__ import annotations

import pytest

from repro.core.orientation import (
    DynamicOrientation,
    EdgeDelete,
    EdgeInsert,
    NodeJoin,
    NodeLeave,
    Orientation,
    OrientationProblem,
    ScratchDynamicOrientation,
    synchronous_repair_orientation_reference,
)
from repro.graphs.compact import CSR_FIELDS, CompactGraph, DeltaError, DeltaOverlayGraph
from repro.graphs.generators import bounded_degree_gnp
from repro.workloads import (
    MIXES,
    churn_smoke,
    churn_smoke_trace,
    churn_trace,
    layered_dag_orientation,
    regular_orientation,
    sensor_network_orientation,
)

pytestmark = pytest.mark.integration

SEED_CHUNKS = [range(start, start + 10) for start in (0, 10, 20, 30, 40)]
SEED_CHUNK_IDS = ["s0-9", "s10-19", "s20-29", "s30-39", "s40-49"]
MIX_NAMES = sorted(MIXES)


def _instance(family: str, seed: int) -> OrientationProblem:
    if family == "gnp":
        return OrientationProblem.from_networkx(
            bounded_degree_gnp(26, 0.25, 6, seed=seed)
        )
    if family == "regular":
        return regular_orientation(degree=4, num_nodes=24, seed=seed)
    if family == "layered":
        return layered_dag_orientation(
            num_levels=4, width=6, edge_probability=0.5, seed=seed
        )
    return sensor_network_orientation(num_nodes=30, max_degree=6, seed=seed)


def _assert_lockstep(problem, trace, seed):
    """Replay ``trace`` on both backends, comparing after every step."""
    fast = DynamicOrientation(problem, seed=seed)
    reference = ScratchDynamicOrientation(problem, seed=seed)
    assert fast.orientation().oriented_edges() == (
        reference.orientation().oriented_edges()
    )
    for step, delta in enumerate(trace):
        fast_stats = fast.apply(delta)
        ref_stats = reference.apply(delta)
        context = (seed, step, delta)
        assert fast_stats == ref_stats, context
        fast_orientation = fast.orientation()
        ref_orientation = reference.orientation()
        assert fast_orientation.oriented_edges() == (
            ref_orientation.oriented_edges()
        ), context
        assert fast_orientation.loads() == ref_orientation.loads(), context
        assert fast.unhappy_edges() == [] == reference.unhappy_edges(), context
        assert fast.num_nodes == reference.num_nodes, context
        assert fast.num_edges == reference.num_edges, context
    return fast, reference


class TestChurnTracesAgree:
    """50 seeded mixed traces per family, compared update by update."""

    @pytest.mark.parametrize("family", ["gnp", "regular", "layered", "sensor"])
    @pytest.mark.parametrize("seeds", SEED_CHUNKS, ids=SEED_CHUNK_IDS)
    def test_incremental_matches_scratch_bit_for_bit(self, family, seeds):
        for seed in seeds:
            problem = _instance(family, seed)
            mix = MIX_NAMES[seed % len(MIX_NAMES)]
            trace = churn_trace(problem, num_updates=25, seed=seed, mix=mix)
            fast, _ = _assert_lockstep(problem, trace, seed)
            # The final state must also equal an independent scratch
            # repair of the final graph seeded from the final orientation
            # (stability is a fixed point: zero iterations, no flips).
            final = fast.orientation()
            solved, stats = synchronous_repair_orientation_reference(
                final.problem, initial=final, seed=seed
            )
            assert stats.iterations == 0
            assert solved.oriented_edges() == final.oriented_edges()

    def test_smoke_scenario_agrees(self):
        """The exact replay the perf gate times is also cross-validated."""
        problem = churn_smoke()
        trace = churn_smoke_trace(problem)
        _assert_lockstep(problem, trace, seed=5)


class TestTraceGenerator:
    def test_traces_are_deterministic_and_representation_independent(self):
        problem = _instance("layered", 3)
        compact = CompactGraph.from_orientation_problem(problem)
        for mix in MIX_NAMES:
            t1 = churn_trace(problem, num_updates=30, seed=9, mix=mix)
            t2 = churn_trace(problem, num_updates=30, seed=9, mix=mix)
            t3 = churn_trace(compact, num_updates=30, seed=9, mix=mix)
            assert t1 == t2 == t3
            assert len(t1) == 30

    def test_trace_covers_all_delta_kinds(self):
        trace = churn_trace(
            _instance("gnp", 1), num_updates=60, seed=2, mix="mixed"
        )
        kinds = {type(delta) for delta in trace}
        assert kinds == {EdgeInsert, EdgeDelete, NodeJoin, NodeLeave}

    def test_min_nodes_floor_suppresses_departures(self):
        problem = OrientationProblem(edges=[(0, 1), (1, 2)], nodes=[0, 1, 2])
        trace = churn_trace(
            problem, num_updates=40, seed=0, mix="failures", min_nodes=3
        )
        engine = DynamicOrientation(problem)
        for delta in trace:
            engine.apply(delta)
            assert engine.num_nodes >= 3


class TestDeltaOverlayGraph:
    def _base(self):
        return CompactGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (0, 3)], nodes=[0, 1, 2, 3]
        )

    def test_invalid_deltas_raise(self):
        overlay = DeltaOverlayGraph(self._base())
        with pytest.raises(DeltaError):
            overlay.add_edge(0, 1)  # duplicate
        with pytest.raises(DeltaError):
            overlay.remove_edge(0, 2)  # absent
        with pytest.raises(DeltaError):
            overlay.add_edge(0, 99)  # unknown endpoint
        with pytest.raises(DeltaError):
            overlay.add_node(2)  # already live
        with pytest.raises(DeltaError):
            overlay.remove_node(99)  # unknown
        overlay.remove_node(2)
        with pytest.raises(DeltaError):
            overlay.add_edge(1, 2)  # dead endpoint

    def test_leave_then_rejoin_revives_the_dense_slot(self):
        overlay = DeltaOverlayGraph(self._base())
        slot = overlay.index_of[2]
        removed = overlay.remove_node(2)
        assert len(removed) == 2
        assert not overlay.has_node(2)
        assert overlay.num_live_nodes == 3
        assert overlay.add_node(2) == slot
        assert overlay.has_node(2)
        assert overlay.degrees[slot] == 0
        overlay.add_edge(1, 2)
        assert overlay.has_edge(2, 1)

    def test_edge_keys_memo_invalidation_is_precise(self):
        base = self._base()
        overlay = DeltaOverlayGraph(base)
        before = overlay.edge_keys()
        assert overlay.edge_keys() is before  # memoized
        overlay.add_edge(1, 3)
        after = overlay.edge_keys()
        assert after is not before
        assert set(after) == set(before) | {(1, 3)}
        assert base.edge_keys() == before  # the base memo is never touched

    def test_solved_arrays_match_mutated_edge_set(self):
        # A deleted base edge and a str join onto int ids, exported by
        # merging the base CSR with the overlay.
        engine = DynamicOrientation(self._base(), seed=1)
        engine.apply_batch([EdgeDelete(0, 1), NodeJoin("n", (2,))])
        graph, heads, load = engine.solved_arrays()
        fresh = CompactGraph.from_edges(
            [(1, 2), (2, 3), (0, 3), ("n", 2)], nodes=[0, 1, 2, 3, "n"]
        )
        assert graph.node_ids == fresh.node_ids
        assert graph.edge_keys() == fresh.edge_keys()
        for field in CSR_FIELDS:
            assert list(getattr(graph, field)) == list(getattr(fresh, field))
        ids = graph.node_ids
        assert [ids[h] for h in heads] == [
            engine.head_of(u, v) for u, v in graph.edge_keys()
        ]
        assert dict(zip(ids, load)) == engine.loads()

    def test_degree_bookkeeping_stays_exact(self):
        overlay = DeltaOverlayGraph(self._base())
        overlay.add_node("x")
        overlay.add_edge("x", 0)
        overlay.remove_node(1)
        overlay.add_edge("x", 2)
        live = overlay.live_node_indices()
        expected = {
            i: sum(1 for _ in overlay.incident_edges(i)) for i in live
        }
        assert {i: overlay.degrees[i] for i in live} == expected
        assert overlay.sum_sq_degree == sum(
            d * d for d in overlay.degrees
        )


class TestDynamicOrientationEdgeCases:
    @pytest.mark.parametrize("backend", ["dict", "compact"])
    def test_invalid_deltas_raise_and_leave_state_intact(self, backend):
        problem = OrientationProblem(edges=[(0, 1), (1, 2)], nodes=[0, 1, 2])
        engine = (
            ScratchDynamicOrientation if backend == "dict" else DynamicOrientation
        )(problem)
        before = engine.orientation().oriented_edges()
        for delta in [
            EdgeInsert(0, 1),  # duplicate
            EdgeInsert(0, 99),  # unknown endpoint
            EdgeDelete(0, 2),  # absent edge
            NodeJoin(1),  # already live
            NodeJoin("new", attach=(99,)),  # unknown attach
            NodeJoin("new", attach=(0, 0)),  # duplicate attach
            NodeLeave(99),  # unknown node
        ]:
            with pytest.raises(DeltaError):
                engine.apply(delta)
        assert engine.orientation().oriented_edges() == before
        assert engine.num_nodes == 3 and engine.num_edges == 2

    def test_unstable_or_partial_initial_is_rejected(self):
        problem = OrientationProblem(edges=[(0, 1), (1, 2)], nodes=[0, 1, 2])
        with pytest.raises(ValueError):
            DynamicOrientation(problem, initial=Orientation(problem))
        star = OrientationProblem(edges=[(0, 1), (0, 2), (0, 3)])
        unstable = Orientation(
            star, heads={(0, 1): 0, (0, 2): 0, (0, 3): 0}
        )
        with pytest.raises(ValueError):
            DynamicOrientation(star, initial=unstable)

    @pytest.mark.parametrize("backend", ["dict", "compact"])
    def test_grows_from_nothing(self, backend):
        problem = OrientationProblem(edges=[], nodes=["a"])
        engine = (
            ScratchDynamicOrientation if backend == "dict" else DynamicOrientation
        )(problem)
        engine.apply(NodeJoin("b", attach=("a",)))
        engine.apply(NodeJoin("c", attach=("a", "b")))
        engine.apply(NodeLeave("a"))
        assert engine.is_stable()
        assert engine.num_nodes == 2
        assert engine.num_edges == 1

    def test_mixed_type_node_ids_agree(self):
        problem = OrientationProblem(
            edges=[(0, "a"), ("a", (1, 2)), ((1, 2), 0)], nodes=[0, "a", (1, 2), 7]
        )
        trace = churn_trace(problem, num_updates=20, seed=4, mix="mixed")
        _assert_lockstep(problem, trace, seed=4)

    def test_explicit_update_seed_override_agrees(self):
        problem = _instance("gnp", 6)
        fast = DynamicOrientation(problem, seed=1)
        reference = ScratchDynamicOrientation(problem, seed=1)
        trace = churn_trace(problem, num_updates=10, seed=8, mix="mixed")
        for step, delta in enumerate(trace):
            assert fast.apply(delta, seed=step * 17) == reference.apply(
                delta, seed=step * 17
            )
        assert fast.orientation().oriented_edges() == (
            reference.orientation().oriented_edges()
        )

    def test_wrapping_a_presolved_orientation_skips_resolving(self):
        problem = _instance("regular", 2)
        solved, _ = synchronous_repair_orientation_reference(problem, seed=3)
        for backend in ("dict", "compact"):
            engine = (
                ScratchDynamicOrientation if backend == "dict" else DynamicOrientation
            )(problem, initial=solved)
            assert engine.orientation().oriented_edges() == solved.oriented_edges()

    def test_locality_updates_touch_few_frontier_nodes(self):
        """The locality guarantee: a delta seeds O(frontier) repair work,
        and the frontier is the delta's own endpoints — not O(n)."""
        problem = churn_smoke()
        engine = DynamicOrientation(problem)
        stats = engine.apply(EdgeDelete(*engine.orientation().problem.edges[0]))
        assert stats.frontier_nodes == 2
        assert stats.repair.initial_unhappy <= 2 * problem.max_degree()
