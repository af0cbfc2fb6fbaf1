"""Incremental re-stabilization: serve churn, not snapshots.

The paper's objects are static, but a production load balancer sees
customers arrive and leave and servers fail continuously.  This module
generalizes the rank-keyed unhappy-edge machinery of the repair kernel
(:mod:`repro.core.orientation._unhappy`) into a first-class dynamic API:

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
become unhappy.  Seeding the repair loop's unhappy-edge tracker from
the frontier alone therefore finds **exactly** the set a full O(m)
rescan would, and from there each conflict-free flip refreshes only the
O(Δ) edges around its two endpoints.  Per-update work is proportional
to the size of the affected region, not to the size of the graph.

Backends (and the correctness bar)
----------------------------------
Per :mod:`repro.dispatch` the engine has two implementations:

* ``backend="dict"`` — the reference: after each delta it rebuilds the
  mutated :class:`~repro.core.orientation.problem.OrientationProblem`
  from scratch and runs the reference
  :func:`~repro.core.orientation.repair.synchronous_repair_orientation`
  (full-rescan unhappy sets) from the carried-over orientation;
* ``backend="compact"`` (auto) — the incremental fast path: a
  :class:`~repro.graphs.compact.DeltaOverlayGraph` mutates edge/node
  views without rebuilding CSR arrays, and the shared repair loop runs
  over the frontier-seeded tracker.

Both produce bit-for-bit identical results after every update — same
orientation, same unhappy-edge sets, same per-update
:class:`~repro.core.orientation.repair.RepairRunStats` — asserted over
hundreds of seeded churn traces by
``tests/integration/test_incremental_churn.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple, Union

from repro import obs
from repro.core.orientation._unhappy import (
    ReprKeys,
    UnhappyEdgeTracker,
    run_repair_loop,
)
from repro.core.orientation.problem import (
    Orientation,
    OrientationProblem,
    edge_key,
)
from repro.core.orientation.repair import (
    ROUNDS_PER_REPAIR_ITERATION,
    RepairRunStats,
    synchronous_repair_orientation,
)
from repro.dispatch import resolve_backend
from repro.graphs.compact import CompactGraph, DeltaError, DeltaOverlayGraph

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
    assert the compact and dict backends agree update by update.
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


def _tails_of(heads: List[int], eu, ev) -> List[int]:
    """The dense tail of every edge; ``ValueError`` if a head is not an endpoint."""
    tails: List[int] = []
    append = tails.append
    for h, u, v in zip(heads, eu, ev):
        if h == v:
            append(u)
        elif h == u:
            append(v)
        else:
            raise ValueError(
                f"head {h} of edge {len(tails)} is not one of its endpoints "
                f"({u}, {v})"
            )
    return tails


# ----------------------------------------------------------------------
# The compact fast path
# ----------------------------------------------------------------------
class _CompactDynamic:
    """Frontier-seeded local re-stabilization over a delta overlay.

    Takes ownership of the ``heads``, ``tails`` and ``load`` lists.
    """

    def __init__(
        self,
        base: CompactGraph,
        heads: List[int],
        tails: List[int],
        load: List[int],
    ):
        self.overlay = DeltaOverlayGraph(base)
        ev = self.overlay.edge_v
        eu = self.overlay.edge_u
        self.heads = heads
        self.tails = tails
        self.load = load
        # Per-edge repr sort keys for the two directions (the reference's
        # unhappy-edge order), built only when an unhappy edge is read.
        # Strings rather than global ranks: ranks shift when edges are
        # inserted, the per-edge strings never do.
        ids = self.overlay.node_ids
        self.tracker = UnhappyEdgeTracker(
            self.heads,
            self.tails,
            self.load,
            ev,
            ReprKeys(ids, eu, ev),
            ReprKeys(ids, ev, eu),
        )

    # -- structural mutation -------------------------------------------
    def _insert_edge(self, u: NodeId, v: NodeId) -> int:
        overlay = self.overlay
        e = overlay.add_edge(u, v)
        ui, vi = overlay.edge_u[e], overlay.edge_v[e]
        ids = overlay.node_ids
        key = (ids[ui], ids[vi])
        head_id = _choose_head(key, self.load[ui], self.load[vi])
        head = ui if head_id == ids[ui] else vi
        tail = vi if head == ui else ui
        self.heads.append(head)
        self.tails.append(tail)
        self.load[head] += 1
        return e

    def _remove_edge_slot(self, e: int) -> None:
        self.load[self.heads[e]] -= 1
        self.tracker.discard(e)

    def mutate(self, delta: Delta) -> Tuple[set, int, int]:
        """Apply the structural change; returns (frontier, inserted, removed)."""
        overlay = self.overlay
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
            if i == len(self.load):
                self.load.append(0)
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
    def apply(self, delta: Delta, update_seed: int) -> UpdateStats:
        frontier, inserted, removed = self.mutate(delta)
        tracker = self.tracker
        overlay = self.overlay
        for x in frontier:
            tracker.refresh(overlay.incident_edges(x))

        stats = UpdateStats(
            delta=delta,
            update_seed=update_seed,
            edges_inserted=inserted,
            edges_removed=removed,
            frontier_nodes=len(frontier),
            repair=RepairRunStats(initial_unhappy=len(tracker)),
        )
        run_repair_loop(
            tracker,
            num_nodes=len(self.load),
            refresh_incident=lambda x: tracker.refresh(
                overlay.incident_edges(x)
            ),
            rng=random.Random(update_seed),
            stats=stats.repair,
            max_iterations=overlay.sum_sq_degree + 1,
            rounds_per_iteration=ROUNDS_PER_REPAIR_ITERATION,
        )
        return stats

    def _restabilize_batch(
        self, frontier: set, update_seed: int
    ) -> Tuple[int, RepairRunStats]:
        """One repair run seeded from the union frontier of a batch.

        Nodes that departed mid-batch are filtered out (their incident
        edges are all dead); the locality argument of the module
        docstring extends to batches because any edge whose endpoint
        loads changed is incident to some frontier node.
        """
        overlay = self.overlay
        alive = overlay.node_alive
        tracker = self.tracker
        live = [x for x in frontier if alive[x]]
        for x in live:
            tracker.refresh(overlay.incident_edges(x))
        repair = RepairRunStats(initial_unhappy=len(tracker))
        run_repair_loop(
            tracker,
            num_nodes=len(self.load),
            refresh_incident=lambda x: tracker.refresh(
                overlay.incident_edges(x)
            ),
            rng=random.Random(update_seed),
            stats=repair,
            max_iterations=overlay.sum_sq_degree + 1,
            rounds_per_iteration=ROUNDS_PER_REPAIR_ITERATION,
        )
        return len(live), repair

    def apply_batch(self, deltas, seed_for: Callable[[int], int]) -> BatchStats:
        frontier: set = set()
        inserted = removed = 0
        try:
            for i, delta in enumerate(deltas):
                f, ins, rem = self.mutate(delta)
                frontier |= f
                inserted += ins
                removed += rem
        except DeltaError as exc:
            # Re-stabilize the already-applied prefix so the stability
            # invariant survives a rejected delta, then propagate.
            exc.index = i
            if i:
                self._restabilize_batch(frontier, seed_for(i))
            raise
        update_seed = seed_for(len(deltas))
        frontier_nodes, repair = self._restabilize_batch(frontier, update_seed)
        return BatchStats(
            num_deltas=len(deltas),
            update_seed=update_seed,
            edges_inserted=inserted,
            edges_removed=removed,
            frontier_nodes=frontier_nodes,
            repair=repair,
        )

    # -- exports --------------------------------------------------------
    def loads(self) -> Dict[NodeId, int]:
        ids = self.overlay.node_ids
        return {
            ids[i]: self.load[i] for i in self.overlay.live_node_indices()
        }

    def load_of(self, node: NodeId) -> int:
        overlay = self.overlay
        i = overlay.index_of.get(node)
        if i is None or not overlay.node_alive[i]:
            raise DeltaError(f"node {node!r} does not exist")
        return self.load[i]

    def solved_arrays(self) -> Tuple[CompactGraph, List[int], List[int]]:
        overlay = self.overlay
        base = overlay.base
        pristine = (
            len(overlay.node_ids) == base.num_nodes
            and len(overlay.edge_u) == base.num_edges
            and overlay.num_live_nodes == base.num_nodes
            and overlay.num_live_edges == base.num_edges
        )
        if pristine:
            return base, list(self.heads), list(self.load)
        graph = overlay.to_compact()
        ids = overlay.node_ids
        index_of = graph.index_of
        heads = [0] * graph.num_edges
        for e in overlay.live_edge_indices():
            u_id = ids[overlay.edge_u[e]]
            v_id = ids[overlay.edge_v[e]]
            heads[graph.edge_index(u_id, v_id)] = index_of[ids[self.heads[e]]]
        load = [0] * graph.num_nodes
        for h in heads:
            load[h] += 1
        return graph, heads, load

    def head_of(self, u: NodeId, v: NodeId) -> NodeId:
        e = self.overlay.edge_index(u, v)
        return self.overlay.node_ids[self.heads[e]]

    def orientation(self) -> Orientation:
        problem = self.overlay.to_orientation_problem()
        ids = self.overlay.node_ids
        orientation = Orientation.__new__(Orientation)
        orientation.problem = problem
        orientation._heads = {
            key: ids[self.heads[e]]
            for e, key in zip(
                self.overlay.live_edge_indices(), self.overlay.edge_keys()
            )
        }
        orientation._load = {
            ids[i]: self.load[i] for i in self.overlay.live_node_indices()
        }
        return orientation

    def unhappy_edges(self) -> List[Tuple[NodeId, NodeId]]:
        ids = self.overlay.node_ids
        out = []
        for e in self.overlay.live_edge_indices():
            h, t = self.heads[e], self.tails[e]
            if self.load[h] - self.load[t] > 1:
                out.append((ids[t], ids[h]))
        return sorted(out, key=repr)

    @property
    def num_nodes(self) -> int:
        return self.overlay.num_live_nodes

    @property
    def num_edges(self) -> int:
        return self.overlay.num_live_edges


# ----------------------------------------------------------------------
# The dict reference path
# ----------------------------------------------------------------------
class _DictDynamic:
    """Scratch reference: rebuild the mutated problem, full-rescan repair."""

    def __init__(self, heads: Dict[Tuple[NodeId, NodeId], NodeId], nodes):
        self._heads = dict(heads)
        self._nodes = set(nodes)
        self._load: Dict[NodeId, int] = {node: 0 for node in self._nodes}
        for head in self._heads.values():
            self._load[head] += 1

    def mutate(self, delta: Delta) -> Tuple[set, int, int]:
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
        orientation, repair_stats = synchronous_repair_orientation(
            problem, initial=initial, seed=update_seed, backend="dict"
        )
        self._heads = {
            key: orientation.head_of(*key) for key in problem.edges
        }
        self._load = orientation.loads()
        return repair_stats

    def apply(self, delta: Delta, update_seed: int) -> UpdateStats:
        frontier, inserted, removed = self.mutate(delta)
        repair_stats = self._repair_from_carried(update_seed)
        return UpdateStats(
            delta=delta,
            update_seed=update_seed,
            edges_inserted=inserted,
            edges_removed=removed,
            frontier_nodes=len(frontier),
            repair=repair_stats,
        )

    def apply_batch(self, deltas, seed_for: Callable[[int], int]) -> BatchStats:
        frontier: set = set()
        inserted = removed = 0
        try:
            for i, delta in enumerate(deltas):
                f, ins, rem = self.mutate(delta)
                frontier |= f
                inserted += ins
                removed += rem
        except DeltaError as exc:
            exc.index = i
            if i:
                self._repair_from_carried(seed_for(i))
            raise
        update_seed = seed_for(len(deltas))
        live = [x for x in frontier if x in self._nodes]
        repair_stats = self._repair_from_carried(update_seed)
        return BatchStats(
            num_deltas=len(deltas),
            update_seed=update_seed,
            edges_inserted=inserted,
            edges_removed=removed,
            frontier_nodes=len(live),
            repair=repair_stats,
        )

    # -- exports --------------------------------------------------------
    def loads(self) -> Dict[NodeId, int]:
        return dict(self._load)

    def load_of(self, node: NodeId) -> int:
        if node not in self._nodes:
            raise DeltaError(f"node {node!r} does not exist")
        return self._load[node]

    def solved_arrays(self) -> Tuple[CompactGraph, List[int], List[int]]:
        graph = CompactGraph.from_edges(self._heads.keys(), nodes=self._nodes)
        index_of = graph.index_of
        heads = [index_of[self._heads[key]] for key in graph.edge_keys()]
        load = [0] * graph.num_nodes
        for h in heads:
            load[h] += 1
        return graph, heads, load

    def head_of(self, u: NodeId, v: NodeId) -> NodeId:
        key = edge_key(u, v)
        head = self._heads.get(key)
        if head is None:
            raise DeltaError(f"no live edge {key!r}")
        return head

    def orientation(self) -> Orientation:
        problem = OrientationProblem(
            edges=self._heads.keys(), nodes=self._nodes
        )
        return Orientation(problem, heads=self._heads)

    def unhappy_edges(self) -> List[Tuple[NodeId, NodeId]]:
        return self.orientation().unhappy_edges()

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._heads)


# ----------------------------------------------------------------------
# The public API
# ----------------------------------------------------------------------
class DynamicOrientation:
    """A stable orientation that absorbs edge/node churn locally.

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
    backend:
        ``"compact"`` (auto) for the incremental fast path, ``"dict"``
        for the rebuild-from-scratch reference; see module docstring.

    After construction — and after every :meth:`apply` — the wrapped
    orientation is stable; :meth:`apply` returns the
    :class:`UpdateStats` of the local re-stabilization it ran.
    """

    def __init__(
        self,
        problem,
        *,
        seed: int = 0,
        backend: Optional[str] = None,
        initial: Optional[Orientation] = None,
    ) -> None:
        self.backend = resolve_backend(backend)
        self._seed = seed
        self._updates = 0
        if initial is not None:
            if not initial.is_complete():
                raise ValueError(
                    "DynamicOrientation needs a complete initial orientation"
                )
            if initial.unhappy_edges():
                raise ValueError(
                    "DynamicOrientation needs a stable initial orientation"
                )
        if self.backend == "compact":
            base = (
                problem
                if isinstance(problem, CompactGraph)
                else CompactGraph.from_orientation_problem(problem)
            )
            if initial is not None:
                index_of = base.index_of
                heads = [
                    index_of[initial.head_of(u, v)]
                    for u, v in base.edge_keys()
                ]
                load = [0] * base.num_nodes
                for h in heads:
                    load[h] += 1
            else:
                from repro.core.orientation._kernels import repair_kernel

                heads, load, _ = repair_kernel(base, seed=seed)
            tails = _tails_of(heads, base.edge_u, base.edge_v)
            self._impl = _CompactDynamic(base, heads, tails, load)
        else:
            if isinstance(problem, CompactGraph):
                problem = problem.to_orientation_problem()
            if initial is None:
                initial, _ = synchronous_repair_orientation(
                    problem, seed=seed, backend="dict"
                )
            self._impl = _DictDynamic(
                {key: initial.head_of(*key) for key in problem.edges},
                problem.nodes,
            )

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

        Endpoint/load consistency is always checked; ``validate=True``
        additionally runs the O(m) stability check the locality guarantee
        depends on.  Compact backend only — no dict round-trip is ever
        taken.
        """
        with obs.span(
            "engine.start",
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            validate=validate,
        ):
            self = cls.__new__(cls)
            self.backend = "compact"
            self._seed = seed
            self._updates = updates_applied
            heads = list(heads)
            if len(heads) != graph.num_edges:
                raise ValueError(
                    f"heads has {len(heads)} entries for {graph.num_edges} edges"
                )
            tails = _tails_of(heads, graph.edge_u, graph.edge_v)
            derived = [0] * graph.num_nodes
            for h in heads:
                derived[h] += 1
            if load is None:
                load = derived
            else:
                load = list(load)
                if load != derived:
                    raise ValueError("load array disagrees with the heads array")
            if validate:
                for e, (h, t) in enumerate(zip(heads, tails)):
                    if load[h] - load[t] > 1:
                        raise ValueError(
                            "orientation is not stable: edge "
                            f"{e} has badness {load[h] - load[t]}"
                        )
            self._impl = _CompactDynamic(graph, heads, tails, load)
        return self

    # -- updates --------------------------------------------------------
    def apply(self, delta: Delta, *, seed: Optional[int] = None) -> UpdateStats:
        """Apply one delta and re-stabilize; returns the update's stats.

        ``seed`` overrides the per-update repair seed (default: a
        deterministic stream derived from the constructor seed and the
        update counter, so replaying a trace is reproducible on either
        backend).  A rejected delta (:class:`DeltaError`) changes nothing,
        the counter included.
        """
        update_seed = (
            seed if seed is not None else self._seed * 1_000_003 + self._updates
        )
        with obs.span(
            "churn.apply", kind=type(delta).__name__, backend=self.backend
        ) as sp:
            stats = self._impl.apply(delta, update_seed)
            self._updates += 1
            sp.set(
                frontier_nodes=stats.frontier_nodes,
                edges_inserted=stats.edges_inserted,
                edges_removed=stats.edges_removed,
                initial_unhappy=stats.repair.initial_unhappy,
                repair_iterations=stats.repair.iterations,
                repair_flips=stats.repair.total_flips,
            )
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

        with obs.span(
            "churn.apply_batch", num_deltas=len(deltas), backend=self.backend
        ) as sp:
            try:
                stats = self._impl.apply_batch(deltas, seed_for)
            except DeltaError as exc:
                self._updates += exc.index
                raise
            self._updates += len(deltas)
            sp.set(
                frontier_nodes=stats.frontier_nodes,
                edges_inserted=stats.edges_inserted,
                edges_removed=stats.edges_removed,
                initial_unhappy=stats.repair.initial_unhappy,
                repair_iterations=stats.repair.iterations,
                repair_flips=stats.repair.total_flips,
            )
        return stats

    # -- queries --------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Live node count."""
        return self._impl.num_nodes

    @property
    def num_edges(self) -> int:
        """Live edge count."""
        return self._impl.num_edges

    @property
    def updates_applied(self) -> int:
        return self._updates

    @property
    def seed(self) -> int:
        """Root seed of the per-update seed stream."""
        return self._seed

    def loads(self) -> Dict[NodeId, int]:
        """Load (indegree) per live node."""
        return self._impl.loads()

    def load_of(self, node: NodeId) -> int:
        """Load of one live node — O(1), the serving-layer point query."""
        return self._impl.load_of(node)

    def head_of(self, u: NodeId, v: NodeId) -> NodeId:
        """Current head of the live edge {u, v}."""
        _reject_self_loop(u, v)
        return self._impl.head_of(u, v)

    def solved_arrays(self) -> Tuple[CompactGraph, List[int], List[int]]:
        """Materialize the current state as ``(graph, heads, load)`` arrays.

        The snapshot export: a canonical (repr-sorted) ``CompactGraph``
        of the live nodes/edges plus dense heads and loads, suitable for
        :meth:`from_solved_arrays`.  When no update has structurally
        changed the instance the base graph is returned as-is (no
        rebuild).
        """
        return self._impl.solved_arrays()

    def orientation(self) -> Orientation:
        """Export the current state as a reference Orientation (O(n + m))."""
        return self._impl.orientation()

    def unhappy_edges(self) -> List[Tuple[NodeId, NodeId]]:
        """Unhappy (tail, head) pairs — empty after every apply()."""
        return self._impl.unhappy_edges()

    def is_stable(self) -> bool:
        """Full O(m) stability check (the engine's invariant; for tests)."""
        return not self._impl.unhappy_edges()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicOrientation(backend={self.backend!r}, "
            f"nodes={self.num_nodes}, edges={self.num_edges}, "
            f"updates={self._updates})"
        )
