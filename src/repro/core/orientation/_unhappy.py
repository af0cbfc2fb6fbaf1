"""The rank-keyed unhappy-edge tracker shared by repair-style loops.

Both the batch :func:`~repro.core.orientation._kernels.repair_kernel` and
the incremental engine of :mod:`repro.core.orientation.incremental` run
the same synchronous repair iteration: sort the unhappy edges in the
reference's ``repr`` order, shuffle with the seeded RNG, select a
conflict-free batch greedily, flip it, and refresh only the edges whose
endpoint loads changed.  This module holds the two pieces they share:

* :class:`UnhappyEdgeTracker` — the incrementally maintained
  ``edge -> sort key`` map.  Keys only need to *order* like the
  reference's ``repr((tail, head))`` strings: the batch kernel supplies
  precomputed integer ranks (cheapest to compare), the incremental
  engine supplies the ``repr`` strings themselves (stable under edge
  insertion, where global ranks would shift).  The two key families are
  never mixed within one tracker.  The incremental engine's strings are
  computed on demand, not precomputed: :class:`ReprKeys` builds item
  ``e`` when the tracker reads it, which happens only while edge ``e``
  is unhappy — from a stable state, a handful of frontier edges per
  update instead of two strings for every edge at startup.
* :func:`run_repair_loop` — the iteration itself, identical for both
  callers, parameterized only by how to enumerate the edges incident to
  a node (CSR scan for the immutable batch graph, overlay scan for the
  mutable incremental view).

The tracker's correctness argument is the one documented on
``repair_kernel``: an edge's unhappiness can only change when the load
of one of its endpoints changes, and a flip changes the loads of exactly
two nodes, so refreshing the edges incident to those nodes is exhaustive
(O(Δ) bookkeeping per flip versus a full O(m log m) rescan).  The same
argument powers the *locality* of the incremental engine: a delta only
changes loads at its frontier nodes, so seeding the tracker from the
frontier finds exactly the unhappy edges a full rescan would.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence

from repro import obs

__all__ = ["ReprKeys", "UnhappyEdgeTracker", "run_repair_loop"]


class ReprKeys:
    """Per-edge ``repr`` sort keys, computed when read.

    Item ``e`` is ``repr((ids[a[e]], ids[b[e]]))``.  The view holds live
    references to ``ids``, ``a`` and ``b``, so it covers nodes and edges
    appended to them later without any bookkeeping.
    """

    __slots__ = ("ids", "a", "b")

    def __init__(self, ids: Sequence, a: Sequence[int], b: Sequence[int]) -> None:
        self.ids = ids
        self.a = a
        self.b = b

    def __getitem__(self, e: int) -> str:
        ids = self.ids
        return repr((ids[self.a[e]], ids[self.b[e]]))


class UnhappyEdgeTracker:
    """Incrementally maintained map of unhappy edges to their sort keys.

    Parameters
    ----------
    heads, tails, load:
        Live references to the caller's dense state arrays (the tracker
        reads them on every refresh; it never mutates them).
    ev:
        Per-edge "canonical v" endpoint: when ``heads[e] == ev[e]`` the
        edge's sort key is ``key_to_v[e]``, otherwise ``key_to_u[e]`` —
        exactly the two possible ``repr((tail, head))`` orders.
    key_to_v, key_to_u:
        Per-edge sort keys for the two directions.  Any totally ordered
        keys whose order matches the reference ``repr`` order work:
        integer ranks (batch kernel) or the repr strings themselves
        (incremental engine, as :class:`ReprKeys` views that grow with
        the overlay's edge lists).
    """

    __slots__ = ("heads", "tails", "load", "ev", "key_to_v", "key_to_u", "unhappy")

    def __init__(
        self,
        heads: Sequence[int],
        tails: Sequence[int],
        load: Sequence[int],
        ev: Sequence[int],
        key_to_v: Sequence,
        key_to_u: Sequence,
    ) -> None:
        self.heads = heads
        self.tails = tails
        self.load = load
        self.ev = ev
        self.key_to_v = key_to_v
        self.key_to_u = key_to_u
        #: edge index -> sort key of its current (tail, head) direction.
        self.unhappy: Dict[int, object] = {}

    # -- refresh --------------------------------------------------------
    def refresh(self, edges: Iterable[int]) -> None:
        """Recompute membership (and key) of every edge in ``edges``.

        Keys are recomputed from the edge's *current* direction, so a
        tracked key can never go stale no matter how often an edge is
        refreshed.
        """
        heads = self.heads
        tails = self.tails
        load = self.load
        ev = self.ev
        unhappy = self.unhappy
        for e in edges:
            h = heads[e]
            if load[h] - load[tails[e]] > 1:
                unhappy[e] = (
                    self.key_to_v[e] if h == ev[e] else self.key_to_u[e]
                )
            else:
                unhappy.pop(e, None)

    def refresh_slots(
        self, slot_edge: Sequence[int], start: int, stop: int
    ) -> None:
        """Refresh the edges in ``slot_edge[start:stop]`` (CSR fast path)."""
        heads = self.heads
        tails = self.tails
        load = self.load
        ev = self.ev
        unhappy = self.unhappy
        for s in range(start, stop):
            e = slot_edge[s]
            h = heads[e]
            if load[h] - load[tails[e]] > 1:
                unhappy[e] = (
                    self.key_to_v[e] if h == ev[e] else self.key_to_u[e]
                )
            else:
                unhappy.pop(e, None)

    def discard(self, e: int) -> None:
        """Forget an edge (it was deleted from the graph)."""
        self.unhappy.pop(e, None)

    # -- queries --------------------------------------------------------
    def sorted_edges(self) -> List[int]:
        """Unhappy edge indices in reference order (ascending key)."""
        return sorted(self.unhappy, key=self.unhappy.__getitem__)

    def __len__(self) -> int:
        return len(self.unhappy)

    def __bool__(self) -> bool:
        return bool(self.unhappy)


def run_repair_loop(
    tracker: UnhappyEdgeTracker,
    *,
    num_nodes: int,
    refresh_incident: Callable[[int], None],
    rng,
    stats,
    max_iterations: int,
    rounds_per_iteration: int,
) -> None:
    """Drive synchronous conflict-free repair until no edge is unhappy.

    Flips happen in place on the tracker's ``heads``/``tails``/``load``
    arrays.  The shuffle permutes the key-sorted edge list exactly like
    the reference's shuffle of the repr-sorted tuple list (``shuffle``'s
    stream consumption depends only on the length), so given the same
    seeded ``rng`` and the same unhappy set, the per-iteration flip sets
    — and hence ``stats`` — match the dict reference path bit for bit.

    Parameters
    ----------
    tracker:
        Seeded tracker (full scan for the batch kernel, delta frontier
        for the incremental engine).
    num_nodes:
        Size of the dense node id space (for the conflict bitmap).
    refresh_incident:
        ``refresh_incident(x)`` refreshes the tracker for every live
        edge incident to dense node ``x``.
    rng:
        The seeded ``random.Random`` consumed by the per-iteration
        shuffles.
    stats:
        A :class:`~repro.core.orientation.repair.RepairRunStats` updated
        in place.
    max_iterations:
        Safety valve mirroring the reference path's ``Σ deg(v)² + 1``.
    rounds_per_iteration:
        LOCAL communication rounds charged per iteration
        (:data:`~repro.core.orientation.repair.ROUNDS_PER_REPAIR_ITERATION`).
    """
    heads = tracker.heads
    tails = tracker.tails
    load = tracker.load
    # Hoisted: the loop runs per repair iteration with O(unhappy) work
    # inside; three disabled-metric calls per iteration would still be
    # three wasted function calls each time around.  The conflict bitmap
    # is likewise allocated once and wiped per iteration by clearing only
    # the entries the selection marked — a fresh ``bytearray(num_nodes)``
    # per iteration is an O(n) pass that dwarfs the O(unhappy · Δ) real
    # work once the unhappy set is a small frontier of a large graph.
    traced = obs.enabled()
    used = bytearray(num_nodes)
    while tracker.unhappy:
        if stats.iterations >= max_iterations:
            raise RuntimeError(
                f"repair loop exceeded {max_iterations} iterations; "
                "the potential argument guarantees this cannot happen"
            )

        # Greedy conflict-free selection: no node participates in two
        # flips.
        batch = tracker.sorted_edges()
        rng.shuffle(batch)
        selected: List[int] = []
        for e in batch:
            t = tails[e]
            h = heads[e]
            if used[t] or used[h]:
                continue
            selected.append(e)
            used[t] = 1
            used[h] = 1

        for e in selected:
            used[tails[e]] = 0
            used[heads[e]] = 0

        for e in selected:
            t = tails[e]
            h = heads[e]
            heads[e] = t
            tails[e] = h
            load[h] -= 1
            load[t] += 1

        for e in selected:
            refresh_incident(tails[e])
            refresh_incident(heads[e])

        stats.iterations += 1
        stats.communication_rounds += rounds_per_iteration
        stats.total_flips += len(selected)
        stats.flips_per_iteration.append(len(selected))
        if traced:
            obs.add("repair.iterations")
            obs.observe("repair.unhappy_edges", len(batch))
            obs.observe("repair.flips_per_iteration", len(selected))
