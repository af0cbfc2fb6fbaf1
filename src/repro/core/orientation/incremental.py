"""Incremental re-stabilization: serve churn, not snapshots.

The paper's objects are static, but a production load balancer sees
customers arrive and leave and servers fail continuously.  This module
runs the synchronous repair baseline incrementally, as a first-class
dynamic API:

:class:`DynamicOrientation` wraps a solved (stable, complete)
orientation and supports :meth:`~DynamicOrientation.apply` for four
delta kinds — :class:`EdgeInsert`, :class:`EdgeDelete`,
:class:`NodeJoin`, :class:`NodeLeave` — re-stabilizing after each one.

Delta semantics
---------------
* ``EdgeInsert(u, v)`` — both endpoints must exist and differ; the new
  edge is oriented towards its *less loaded* endpoint (canonical-key
  order breaks ties), so a single insertion into a stable state never
  creates badness above 1.  A self-loop, inserted or deleted, is a
  :class:`DeltaError`.
* ``EdgeDelete(u, v)`` — the edge must exist; its head's load drops.
* ``NodeJoin(node, attach)`` — ``node`` must be new (or previously
  departed); the ``attach`` edges to existing nodes are inserted in the
  given order, each under the ``EdgeInsert`` head rule against the
  evolving loads.
* ``NodeLeave(node)`` — the node and every incident edge disappear (a
  server failure / customer departure); its neighbours' loads drop.

The locality guarantee
----------------------
Between updates the orientation is stable, so every live edge is happy.
A delta changes loads only at its *frontier* (the endpoints of the
inserted/deleted edges), and an edge's happiness depends only on its
endpoint loads — so an edge not incident to the frontier cannot have
become unhappy.  Refreshing the edges incident to the frontier alone
therefore finds **exactly** the unhappy set a full O(m) rescan would.
The repair iteration is then the reference's: sort the unhappy edges by
``repr((tail, head))``, shuffle with the update's seeded RNG, flip a
greedy conflict-free batch, and refresh only the O(Δ) edges around each
flipped edge's two endpoints (a flip changes exactly those two loads).
Per-update work is proportional to the size of the affected region, not
to the size of the graph.  The frontiers are a handful of edges, so this
loop is plain Python over lists (NumPy's per-call overhead would
dominate, and the served path stays NumPy-free); the batch
:func:`~repro.core.orientation._kernels.repair_kernel` runs the same
iteration on NumPy arrays with integer rank keys of its own.

The engine and its oracle
-------------------------
:class:`DynamicOrientation` is the incremental engine: a
:class:`~repro.graphs.compact.DeltaOverlayGraph` mutates edge/node views
without rebuilding CSR arrays, and the engine keeps the unhappy edges
of the running repair itself.

:class:`ScratchDynamicOrientation` is its oracle: after each delta it
rebuilds the mutated
:class:`~repro.core.orientation.problem.OrientationProblem` from scratch
and runs
:func:`~repro.core.orientation.repair.synchronous_repair_orientation_reference`
(full-rescan unhappy sets) from the carried-over orientation.

Both produce bit-for-bit identical results after every update — same
orientation, same unhappy-edge sets, same per-update
:class:`~repro.core.orientation.repair.RepairRunStats` — asserted over
hundreds of seeded churn traces by
``tests/integration/test_incremental_churn.py``.
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple, Union

from repro import obs
from repro.core.orientation.problem import (
    Orientation,
    OrientationProblem,
    edge_key,
)
from repro.core.orientation.repair import (
    ROUNDS_PER_REPAIR_ITERATION,
    RepairRunStats,
    synchronous_repair_orientation_reference,
)
from repro.graphs.compact import (
    INDEX_TYPECODE,
    CompactGraph,
    DeltaError,
    DeltaOverlayGraph,
)

NodeId = Hashable

__all__ = [
    "BatchStats",
    "Delta",
    "DeltaError",
    "DynamicOrientation",
    "EdgeDelete",
    "EdgeInsert",
    "NodeJoin",
    "NodeLeave",
    "ScratchDynamicOrientation",
    "UpdateStats",
]


# ----------------------------------------------------------------------
# Deltas
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EdgeInsert:
    """Insert edge {u, v} between two existing nodes."""

    u: NodeId
    v: NodeId


@dataclass(frozen=True)
class EdgeDelete:
    """Delete the existing edge {u, v}."""

    u: NodeId
    v: NodeId


@dataclass(frozen=True)
class NodeJoin:
    """A new node arrives, attaching to zero or more existing nodes."""

    node: NodeId
    attach: Tuple[NodeId, ...] = ()


@dataclass(frozen=True)
class NodeLeave:
    """An existing node (and every incident edge) departs/fails."""

    node: NodeId


Delta = Union[EdgeInsert, EdgeDelete, NodeJoin, NodeLeave]


@dataclass
class UpdateStats:
    """What one :meth:`DynamicOrientation.apply` call did.

    Equality compares every field, so the cross-validation suite can
    assert the engine and its scratch oracle agree update by update.
    """

    delta: Delta
    update_seed: int
    edges_inserted: int
    edges_removed: int
    #: Nodes whose load the structural change touched — the seed set of
    #: the local re-stabilization.
    frontier_nodes: int
    repair: RepairRunStats = field(default_factory=RepairRunStats)


@dataclass
class BatchStats:
    """What one :meth:`DynamicOrientation.apply_batch` call did.

    The batch analogue of :class:`UpdateStats`: the structural counters
    sum over every delta in the batch, ``frontier_nodes`` counts the
    *union* frontier still alive after all mutations, and ``repair`` is
    the single re-stabilization run over that union.
    """

    num_deltas: int
    #: Seed of the batch's one repair run; ``None`` for the empty batch
    #: (which runs no repair at all).
    update_seed: Optional[int]
    edges_inserted: int = 0
    edges_removed: int = 0
    frontier_nodes: int = 0
    repair: RepairRunStats = field(default_factory=RepairRunStats)


def _choose_head(key: Tuple[NodeId, NodeId], load_u: int, load_v: int) -> NodeId:
    """The deterministic insert orientation: less loaded endpoint wins.

    ``key`` is the canonical edge key; ties go to ``key[0]`` (the
    canonically smaller endpoint), mirroring the propose-to-canonical
    tie-break of the phase algorithm.
    """
    return key[0] if load_u <= load_v else key[1]


def _reject_self_loop(u: NodeId, v: NodeId) -> None:
    """Reject an edge {n, n} before a delta mutates anything or a query runs.

    Raised as a :class:`DeltaError` so a batch reports the rider's
    ``index`` and re-stabilizes its applied prefix, and the server
    answers ``ok: false``, like any other invalid delta or query.
    """
    if u == v:
        raise DeltaError(f"self-loop on {u!r} is not allowed")


# ----------------------------------------------------------------------
# The seed stream both engines share
# ----------------------------------------------------------------------
class _SeededEngine:
    """Per-update seeds, the update counter and the churn spans.

    :class:`DynamicOrientation` and :class:`ScratchDynamicOrientation`
    share this wrapper, so replaying a trace on either draws the same
    repair seeds and a rejected batch advances the counter by the same
    :attr:`DeltaError.index`.  Subclasses implement ``_mutate`` (the
    structural change of one delta), ``_restabilize`` (one repair run
    seeded from a frontier), ``_head_of`` and the read-only queries.
    """

    _seed: int
    _updates: int

    def apply(self, delta: Delta, *, seed: Optional[int] = None) -> UpdateStats:
        """Apply one delta and re-stabilize; returns the update's stats.

        ``seed`` overrides the per-update repair seed (default: a
        deterministic stream derived from the constructor seed and the
        update counter, so replaying a trace is reproducible).  A rejected
        delta (:class:`DeltaError`) changes nothing, the counter included.
        """
        update_seed = (
            seed if seed is not None else self._seed * 1_000_003 + self._updates
        )
        with obs.span("churn.apply", kind=type(delta).__name__) as sp:
            frontier, inserted, removed = self._mutate(delta)
            frontier_nodes, repair = self._restabilize(frontier, update_seed)
            stats = UpdateStats(
                delta=delta,
                update_seed=update_seed,
                edges_inserted=inserted,
                edges_removed=removed,
                frontier_nodes=frontier_nodes,
                repair=repair,
            )
            self._updates += 1
            sp.set(**_span_attrs(stats))
        return stats

    def apply_batch(self, deltas, *, seed: Optional[int] = None) -> BatchStats:
        """Apply a batch of deltas with ONE re-stabilization at the end.

        The coalescing entry point of the serving layer: every delta's
        structural mutation is applied in order (the ``EdgeInsert`` head
        rule sees the evolving loads, exactly as a sequential replay
        would between repairs), the union of their frontiers seeds a
        single repair run, and the update counter advances by
        ``len(deltas)``.  The batch repair runs under the seed-stream
        seed of the *last* delta, so whenever the intermediate repairs of
        a sequential replay are no-ops the coalesced result is
        bit-for-bit identical to replaying the trace delta by delta.

        An empty batch is a strict no-op: no seed-stream advance, no
        repair, and the returned stats carry ``update_seed=None``.  If the
        delta at ``index`` is invalid, the prefix before it stays applied
        and the engine ends exactly as ``apply_batch(deltas[:index])``
        would have left it — re-stabilized under that call's seed (or the
        explicit ``seed``), with the counter advanced by ``index`` — before
        the :class:`DeltaError` propagates carrying ``index``.
        """
        deltas = tuple(deltas)
        if not deltas:
            return BatchStats(
                num_deltas=0,
                update_seed=None,
                edges_inserted=0,
                edges_removed=0,
                frontier_nodes=0,
            )

        def seed_for(count: int) -> int:
            """The batch seed of the first ``count`` deltas."""
            if seed is not None:
                return seed
            return self._seed * 1_000_003 + self._updates + count - 1

        with obs.span("churn.apply_batch", num_deltas=len(deltas)) as sp:
            frontier: set = set()
            inserted = removed = 0
            try:
                for i, delta in enumerate(deltas):
                    f, ins, rem = self._mutate(delta)
                    frontier |= f
                    inserted += ins
                    removed += rem
            except DeltaError as exc:
                # Re-stabilize the already-applied prefix so the stability
                # invariant survives a rejected delta, then propagate.
                exc.index = i
                if i:
                    self._restabilize(frontier, seed_for(i))
                self._updates += i
                raise
            update_seed = seed_for(len(deltas))
            frontier_nodes, repair = self._restabilize(frontier, update_seed)
            stats = BatchStats(
                num_deltas=len(deltas),
                update_seed=update_seed,
                edges_inserted=inserted,
                edges_removed=removed,
                frontier_nodes=frontier_nodes,
                repair=repair,
            )
            self._updates += len(deltas)
            sp.set(**_span_attrs(stats))
        return stats

    @property
    def updates_applied(self) -> int:
        return self._updates

    @property
    def seed(self) -> int:
        """Root seed of the per-update seed stream."""
        return self._seed

    def head_of(self, u: NodeId, v: NodeId) -> NodeId:
        """Current head of the live edge {u, v}."""
        _reject_self_loop(u, v)
        return self._head_of(u, v)

    def is_stable(self) -> bool:
        """Full O(m) stability check (the engine's invariant; for tests)."""
        return not self.unhappy_edges()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(nodes={self.num_nodes}, "
            f"edges={self.num_edges}, updates={self._updates})"
        )


def _span_attrs(stats: Union[UpdateStats, BatchStats]) -> dict:
    """The churn span attributes of one update or batch."""
    return dict(
        frontier_nodes=stats.frontier_nodes,
        edges_inserted=stats.edges_inserted,
        edges_removed=stats.edges_removed,
        initial_unhappy=stats.repair.initial_unhappy,
        repair_iterations=stats.repair.iterations,
        repair_flips=stats.repair.total_flips,
    )


def _check_initial(initial: Optional[Orientation]) -> None:
    """A wrapped initial orientation must be complete and stable."""
    if initial is None:
        return
    if not initial.is_complete():
        raise ValueError("DynamicOrientation needs a complete initial orientation")
    if initial.unhappy_edges():
        raise ValueError("DynamicOrientation needs a stable initial orientation")


# ----------------------------------------------------------------------
# The incremental engine
# ----------------------------------------------------------------------
class DynamicOrientation(_SeededEngine):
    """A stable orientation that absorbs edge/node churn locally.

    A :class:`~repro.graphs.compact.DeltaOverlayGraph` mutates edge/node
    views without rebuilding CSR arrays.  The engine stores each edge's
    head only: the tail is the other endpoint, ``edge_u[e] + edge_v[e] -
    heads[e]`` on the overlay's endpoint lists.

    Parameters
    ----------
    problem:
        The initial instance — an
        :class:`~repro.core.orientation.problem.OrientationProblem` or a
        pre-interned :class:`~repro.graphs.compact.CompactGraph`.
    seed:
        Seed of the initial solve (the seeded repair baseline) and the
        root of the per-update seed stream.
    initial:
        A pre-solved **stable, complete**
        :class:`~repro.core.orientation.problem.Orientation` to wrap
        instead of solving; raises ``ValueError`` otherwise (the
        locality guarantee needs a stable starting point).

    After construction — and after every :meth:`apply` — the wrapped
    orientation is stable; :meth:`apply` returns the
    :class:`UpdateStats` of the local re-stabilization it ran.

    An engine restored by :func:`~repro.serve.snapshot.load_state` reads
    its graph from a memory-mapped snapshot file; :meth:`close` (or a
    ``with`` block) releases it.
    """

    def __init__(
        self,
        problem,
        *,
        seed: int = 0,
        initial: Optional[Orientation] = None,
    ) -> None:
        _check_initial(initial)
        base = (
            problem
            if isinstance(problem, CompactGraph)
            else CompactGraph.from_orientation_problem(problem)
        )
        if initial is not None:
            index_of = base.index_of
            heads = [index_of[initial.head_of(u, v)] for u, v in base.edge_keys()]
            load = [0] * base.num_nodes
            for h in heads:
                load[h] += 1
        else:
            from repro.core.orientation._kernels import repair_kernel

            heads, load, _ = repair_kernel(base, seed=seed)
        self._start(base, heads, load, seed=seed, updates_applied=0)

    def _start(
        self,
        base: CompactGraph,
        heads: List[int],
        load: List[int],
        *,
        seed: int,
        updates_applied: int,
    ) -> None:
        """Take ownership of the ``heads`` and ``load`` lists."""
        self._seed = seed
        self._updates = updates_applied
        self._overlay = DeltaOverlayGraph(base)
        self._heads = heads
        self._load = load
        #: Unhappy edge -> its ``repr((tail, head))`` string, the
        #: reference's sort key, formatted only while the edge is unhappy.
        #: Strings rather than global ranks: ranks shift when edges are
        #: inserted, the per-edge strings never do.
        self._unhappy: Dict[int, str] = {}
        #: The ArraySnapshot a restored engine's graph is mapped from
        #: (attached by ``load_state``); released by :meth:`close`.
        self._snapshot = None

    # -- trusted construction ------------------------------------------
    @classmethod
    def from_solved_arrays(
        cls,
        graph: CompactGraph,
        heads,
        load=None,
        *,
        seed: int = 0,
        updates_applied: int = 0,
        validate: bool = True,
    ) -> "DynamicOrientation":
        """Wrap already-solved flat arrays without re-solving — O(m).

        The trusted-constructor entry point for the serving layer and
        snapshot restore: ``heads[e]`` is the dense head of edge ``e`` of
        ``graph``, ``load`` (optional, derived when omitted) the per-node
        indegree.  ``seed``/``updates_applied`` restore the per-update
        seed stream, so a restored engine replays future deltas exactly
        like the engine it was saved from.

        Endpoint/load consistency is always checked, in one pass over
        the overlay's endpoint lists (Python lists iterate faster than the
        snapshot's memoryviews); ``validate=True`` additionally runs the
        O(m) stability check the locality guarantee depends on.  No dict
        round-trip is ever taken.
        """
        with obs.span(
            "engine.start",
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            validate=validate,
        ):
            self = cls.__new__(cls)
            heads = list(heads)
            if len(heads) != graph.num_edges:
                raise ValueError(
                    f"heads has {len(heads)} entries for {graph.num_edges} edges"
                )
            derived = [0] * graph.num_nodes
            self._start(
                graph, heads, derived, seed=seed, updates_applied=updates_applied
            )
            eu, ev = self._overlay.edge_u, self._overlay.edge_v
            # The endpoint check runs before the count, so a head out of
            # range raises this ValueError rather than an IndexError.
            for e, h, u, v in zip(itertools.count(), heads, eu, ev):
                if h != u and h != v:
                    raise ValueError(
                        f"head {h} of edge {e} is not one of its endpoints "
                        f"({u}, {v})"
                    )
                derived[h] += 1
            if load is not None and list(load) != derived:
                raise ValueError("load array disagrees with the heads array")
            if validate:
                for e, h, u, v in zip(itertools.count(), heads, eu, ev):
                    badness = derived[h] - derived[u + v - h]
                    if badness > 1:
                        raise ValueError(
                            f"orientation is not stable: edge {e} has badness "
                            f"{badness}"
                        )
        return self

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Release the snapshot mapping of a restored engine.

        The graph's CSR buffers are views into that mapping, so the
        engine must not be used afterwards.  A no-op for an engine that
        was not restored, and on a second call.  While a caller still
        holds a view into the mapping (say a ``neighbors()`` slice), the
        ``BufferError`` propagates and a later call can retry.
        """
        if self._snapshot is not None:
            self._snapshot.close()
            self._snapshot = None

    def __enter__(self) -> "DynamicOrientation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- structural mutation -------------------------------------------
    def _insert_edge(self, u: NodeId, v: NodeId) -> int:
        overlay = self._overlay
        e = overlay.add_edge(u, v)
        ui, vi = overlay.edge_u[e], overlay.edge_v[e]
        ids = overlay.node_ids
        key = (ids[ui], ids[vi])
        head_id = _choose_head(key, self._load[ui], self._load[vi])
        head = ui if head_id == ids[ui] else vi
        self._heads.append(head)
        self._load[head] += 1
        return e

    def _remove_edge_slot(self, e: int) -> None:
        self._load[self._heads[e]] -= 1
        self._unhappy.pop(e, None)

    def _mutate(self, delta: Delta) -> Tuple[set, int, int]:
        """Apply the structural change; returns (frontier, inserted, removed)."""
        overlay = self._overlay
        if isinstance(delta, EdgeInsert):
            _reject_self_loop(delta.u, delta.v)
            e = self._insert_edge(delta.u, delta.v)
            return {overlay.edge_u[e], overlay.edge_v[e]}, 1, 0
        if isinstance(delta, EdgeDelete):
            _reject_self_loop(delta.u, delta.v)
            e = overlay.remove_edge(delta.u, delta.v)
            self._remove_edge_slot(e)
            return {overlay.edge_u[e], overlay.edge_v[e]}, 0, 1
        if isinstance(delta, NodeJoin):
            # Validate before mutating, so an invalid join leaves the
            # engine untouched.
            for other in delta.attach:
                oi = overlay.index_of.get(other)
                if oi is None or not overlay.node_alive[oi]:
                    raise DeltaError(
                        f"unknown attach endpoint {other!r} in {delta!r}"
                    )
            if len(set(delta.attach)) != len(delta.attach):
                raise DeltaError(f"duplicate attach endpoints in {delta!r}")
            i = overlay.add_node(delta.node)
            if i == len(self._load):
                self._load.append(0)
            frontier = set()
            for other in delta.attach:
                e = self._insert_edge(delta.node, other)
                frontier.add(overlay.edge_u[e])
                frontier.add(overlay.edge_v[e])
            return frontier, len(delta.attach), 0
        if isinstance(delta, NodeLeave):
            i = overlay.index_of.get(delta.node)
            removed = overlay.remove_node(delta.node)
            frontier = set()
            for e in removed:
                self._remove_edge_slot(e)
                frontier.add(overlay.edge_u[e])
                frontier.add(overlay.edge_v[e])
            frontier.discard(i)
            return frontier, 0, len(removed)
        raise TypeError(f"not a delta: {delta!r}")

    # -- re-stabilization ----------------------------------------------
    def _refresh(self, x: int) -> None:
        """Re-key every live edge incident to dense node ``x``.

        An edge's key is formatted from its *current* direction, so a key
        never goes stale however often the edge is refreshed.
        """
        overlay = self._overlay
        eu, ev, ids = overlay.edge_u, overlay.edge_v, overlay.node_ids
        heads = self._heads
        load = self._load
        unhappy = self._unhappy
        for e in overlay.incident_edges(x):
            h = heads[e]
            t = eu[e] + ev[e] - h
            if load[h] - load[t] > 1:
                unhappy[e] = repr((ids[t], ids[h]))
            else:
                unhappy.pop(e, None)

    def _restabilize(
        self, frontier: set, update_seed: int
    ) -> Tuple[int, RepairRunStats]:
        """One repair run seeded from the frontier of a delta or a batch.

        Nodes that departed mid-batch are filtered out (their incident
        edges are all dead); the locality argument of the module
        docstring extends to batches because any edge whose endpoint
        loads changed is incident to some frontier node.

        The shuffle permutes the key-sorted edge list exactly like the
        reference's shuffle of the repr-sorted tuple list (``shuffle``'s
        stream consumption depends only on the length), so the flip sets
        and the returned stats match the dict reference bit for bit.
        """
        overlay = self._overlay
        alive = overlay.node_alive
        live = [x for x in frontier if alive[x]]
        refresh = self._refresh
        for x in live:
            refresh(x)
        unhappy = self._unhappy
        repair = RepairRunStats(initial_unhappy=len(unhappy))
        # Safety valve mirroring the reference path's Σ deg(v)² + 1.
        max_iterations = overlay.sum_sq_degree + 1
        rng = random.Random(update_seed)
        eu, ev = overlay.edge_u, overlay.edge_v
        heads = self._heads
        load = self._load
        # Hoisted: three disabled-metric calls per iteration would still be
        # three wasted function calls each time around.  The conflict
        # bitmap is allocated once per run and wiped per iteration by
        # clearing only the entries the selection marked.
        traced = obs.enabled()
        used = bytearray(len(load))
        while unhappy:
            if repair.iterations >= max_iterations:
                raise RuntimeError(
                    f"repair loop exceeded {max_iterations} iterations; "
                    "the potential argument guarantees this cannot happen"
                )

            # Greedy conflict-free selection: no node participates in two
            # flips.
            batch = sorted(unhappy, key=unhappy.__getitem__)
            rng.shuffle(batch)
            selected: List[int] = []
            for e in batch:
                h = heads[e]
                t = eu[e] + ev[e] - h
                if used[t] or used[h]:
                    continue
                selected.append(e)
                used[t] = 1
                used[h] = 1

            for e in selected:
                h = heads[e]
                t = eu[e] + ev[e] - h
                used[t] = used[h] = 0
                heads[e] = t
                load[h] -= 1
                load[t] += 1

            for e in selected:
                refresh(eu[e])
                refresh(ev[e])

            repair.iterations += 1
            repair.communication_rounds += ROUNDS_PER_REPAIR_ITERATION
            repair.total_flips += len(selected)
            repair.flips_per_iteration.append(len(selected))
            if traced:
                obs.add("repair.iterations")
                obs.observe("repair.unhappy_edges", len(batch))
                obs.observe("repair.flips_per_iteration", len(selected))
        return len(live), repair

    # -- queries --------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Live node count."""
        return self._overlay.num_live_nodes

    @property
    def num_edges(self) -> int:
        """Live edge count."""
        return self._overlay.num_live_edges

    def loads(self) -> Dict[NodeId, int]:
        """Load (indegree) per live node."""
        ids = self._overlay.node_ids
        return {ids[i]: self._load[i] for i in self._overlay.live_node_indices()}

    def load_of(self, node: NodeId) -> int:
        """Load of one live node — O(1), the serving-layer point query."""
        overlay = self._overlay
        i = overlay.index_of.get(node)
        if i is None or not overlay.node_alive[i]:
            raise DeltaError(f"node {node!r} does not exist")
        return self._load[i]

    def _head_of(self, u: NodeId, v: NodeId) -> NodeId:
        e = self._overlay.edge_index(u, v)
        return self._overlay.node_ids[self._heads[e]]

    def _pristine(self) -> bool:
        """Whether no update has structurally changed the base graph."""
        overlay = self._overlay
        base = overlay.base
        return (
            len(overlay.node_ids) == base.num_nodes
            and len(overlay.edge_u) == base.num_edges
            and overlay.num_live_nodes == base.num_nodes
            and overlay.num_live_edges == base.num_edges
        )

    def export_sections(
        self,
    ) -> Tuple[Tuple[NodeId, ...], Dict[str, array], Optional[bool]]:
        """The current state as snapshot sections, with no graph object.

        Returns ``(node_ids, sections, lexicographic)``: the ``repr``-sorted
        live ids, the five :data:`~repro.graphs.compact.CSR_FIELDS`
        buffers plus ``heads`` and ``load`` as ``array('q')`` (the base
        graph's own buffers while no update has structurally changed it),
        and whether predicate P of
        :meth:`~repro.graphs.compact.CompactGraph.lexicographic_reprs`
        holds on the ids (``None`` when not known).  A churned state, for
        any ids, is merged from the base CSR and the overlay by
        :meth:`~repro.graphs.compact.DeltaOverlayGraph.export_sections`;
        no CSR is rebuilt.
        """
        overlay = self._overlay
        if self._pristine():
            base = overlay.base
            sections = base.snapshot_sections()
            sections["heads"] = array(INDEX_TYPECODE, self._heads)
            sections["load"] = array(INDEX_TYPECODE, self._load)
            return base.node_ids, sections, base.derived.get("lexicographic_reprs")
        return overlay.export_sections(self._heads, self._load)

    def solved_arrays(self) -> Tuple[CompactGraph, array, array]:
        """The current state as ``(graph, heads, load)`` flat arrays.

        Suitable for :meth:`from_solved_arrays`: a canonical (repr-sorted)
        ``CompactGraph`` of the live nodes/edges wrapping the sections of
        :meth:`export_sections`, plus dense heads and loads.  When no
        update has structurally changed the instance the base graph is
        returned as-is.
        """
        if self._pristine():
            heads = array(INDEX_TYPECODE, self._heads)
            return self._overlay.base, heads, array(INDEX_TYPECODE, self._load)
        node_ids, sections, lexicographic = self.export_sections()
        graph = CompactGraph.from_buffers(node_ids, sections)
        graph.derived["lexicographic_reprs"] = lexicographic
        return graph, sections["heads"], sections["load"]

    def orientation(self) -> Orientation:
        """Export the current state as a reference Orientation (O(n + m))."""
        problem = self._overlay.to_orientation_problem()
        ids = self._overlay.node_ids
        orientation = Orientation.__new__(Orientation)
        orientation.problem = problem
        orientation._heads = {
            key: ids[self._heads[e]]
            for e, key in zip(
                self._overlay.live_edge_indices(), self._overlay.edge_keys()
            )
        }
        orientation._load = {
            ids[i]: self._load[i] for i in self._overlay.live_node_indices()
        }
        return orientation

    def unhappy_edges(self) -> List[Tuple[NodeId, NodeId]]:
        """Unhappy (tail, head) pairs — empty after every apply()."""
        overlay = self._overlay
        eu, ev, ids = overlay.edge_u, overlay.edge_v, overlay.node_ids
        out = []
        for e in overlay.live_edge_indices():
            h = self._heads[e]
            t = eu[e] + ev[e] - h
            if self._load[h] - self._load[t] > 1:
                out.append((ids[t], ids[h]))
        return sorted(out, key=repr)


# ----------------------------------------------------------------------
# The scratch-recompute oracle
# ----------------------------------------------------------------------
class ScratchDynamicOrientation(_SeededEngine):
    """:class:`DynamicOrientation` by re-solving from scratch (the oracle).

    After each delta it rebuilds the mutated
    :class:`~repro.core.orientation.problem.OrientationProblem` and runs
    :func:`~repro.core.orientation.repair.synchronous_repair_orientation_reference`
    (full-rescan unhappy sets) from the carried-over orientation.  Same
    constructor, seed stream, deltas, stats and queries as the
    incremental engine, which must match it bit for bit after every
    update; it is also the same-machine baseline of the churn ratio gate.
    """

    def __init__(
        self,
        problem,
        *,
        seed: int = 0,
        initial: Optional[Orientation] = None,
    ) -> None:
        _check_initial(initial)
        self._seed = seed
        self._updates = 0
        if isinstance(problem, CompactGraph):
            problem = problem.to_orientation_problem()
        if initial is None:
            initial, _ = synchronous_repair_orientation_reference(problem, seed=seed)
        self._heads = {key: initial.head_of(*key) for key in problem.edges}
        self._nodes = set(problem.nodes)
        self._load: Dict[NodeId, int] = {node: 0 for node in self._nodes}
        for head in self._heads.values():
            self._load[head] += 1

    def _mutate(self, delta: Delta) -> Tuple[set, int, int]:
        if isinstance(delta, EdgeInsert):
            _reject_self_loop(delta.u, delta.v)
            key = edge_key(delta.u, delta.v)
            if key in self._heads:
                raise DeltaError(f"duplicate edge {key!r}")
            for node in key:
                if node not in self._nodes:
                    raise DeltaError(f"unknown node {node!r} in edge {key!r}")
            head = _choose_head(key, self._load[key[0]], self._load[key[1]])
            self._heads[key] = head
            self._load[head] += 1
            return set(key), 1, 0
        if isinstance(delta, EdgeDelete):
            _reject_self_loop(delta.u, delta.v)
            key = edge_key(delta.u, delta.v)
            head = self._heads.pop(key, None)
            if head is None:
                raise DeltaError(f"no live edge {key!r}")
            self._load[head] -= 1
            return set(key), 0, 1
        if isinstance(delta, NodeJoin):
            if delta.node in self._nodes:
                raise DeltaError(f"node {delta.node!r} already exists")
            for other in delta.attach:
                if other not in self._nodes:
                    raise DeltaError(
                        f"unknown attach endpoint {other!r} in {delta!r}"
                    )
            if len(set(delta.attach)) != len(delta.attach):
                raise DeltaError(f"duplicate attach endpoints in {delta!r}")
            self._nodes.add(delta.node)
            self._load[delta.node] = 0
            frontier = set()
            for other in delta.attach:
                key = edge_key(delta.node, other)
                head = _choose_head(key, self._load[key[0]], self._load[key[1]])
                self._heads[key] = head
                self._load[head] += 1
                frontier.update(key)
            return frontier, len(delta.attach), 0
        if isinstance(delta, NodeLeave):
            if delta.node not in self._nodes:
                raise DeltaError(f"node {delta.node!r} does not exist")
            removed = [key for key in self._heads if delta.node in key]
            frontier = set()
            for key in removed:
                self._load[self._heads.pop(key)] -= 1
                frontier.update(key)
            frontier.discard(delta.node)
            self._nodes.discard(delta.node)
            del self._load[delta.node]
            return frontier, 0, len(removed)
        raise TypeError(f"not a delta: {delta!r}")

    def _repair_from_carried(self, update_seed: int) -> RepairRunStats:
        # Solve the mutated instance from scratch on the reference path:
        # rebuild the problem, re-orient from the carried-over heads, and
        # repair with full-rescan unhappy sets.
        problem = OrientationProblem(edges=self._heads.keys(), nodes=self._nodes)
        initial = Orientation(problem, heads=self._heads)
        orientation, repair_stats = synchronous_repair_orientation_reference(
            problem, initial=initial, seed=update_seed
        )
        self._heads = {key: orientation.head_of(*key) for key in problem.edges}
        self._load = orientation.loads()
        return repair_stats

    def _restabilize(
        self, frontier: set, update_seed: int
    ) -> Tuple[int, RepairRunStats]:
        live = [x for x in frontier if x in self._nodes]
        return len(live), self._repair_from_carried(update_seed)

    # -- queries --------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._heads)

    def loads(self) -> Dict[NodeId, int]:
        return dict(self._load)

    def load_of(self, node: NodeId) -> int:
        if node not in self._nodes:
            raise DeltaError(f"node {node!r} does not exist")
        return self._load[node]

    def _head_of(self, u: NodeId, v: NodeId) -> NodeId:
        key = edge_key(u, v)
        head = self._heads.get(key)
        if head is None:
            raise DeltaError(f"no live edge {key!r}")
        return head

    def solved_arrays(self) -> Tuple[CompactGraph, array, array]:
        graph = CompactGraph.from_edges(self._heads.keys(), nodes=self._nodes)
        index_of = graph.index_of
        heads = array(
            INDEX_TYPECODE, (index_of[self._heads[key]] for key in graph.edge_keys())
        )
        load = array(INDEX_TYPECODE, bytes(heads.itemsize * graph.num_nodes))
        for h in heads:
            load[h] += 1
        return graph, heads, load

    def orientation(self) -> Orientation:
        problem = OrientationProblem(edges=self._heads.keys(), nodes=self._nodes)
        return Orientation(problem, heads=self._heads)

    def unhappy_edges(self) -> List[Tuple[NodeId, NodeId]]:
        return self.orientation().unhappy_edges()
