"""The unhappy-edge tracker and repair loop of the incremental engine.

:class:`~repro.core.orientation.incremental.DynamicOrientation` re-runs
the synchronous repair iteration after every delta: sort the unhappy
edges in the reference's ``repr((tail, head))`` order, shuffle with the
seeded RNG, select a conflict-free batch greedily, flip it, and refresh
only the edges whose endpoint loads changed.  Its frontiers are a handful
of edges, so the two pieces here are plain Python over lists (NumPy's
per-call overhead would dominate, and the served path stays NumPy-free);
the batch :func:`~repro.core.orientation._kernels.repair_kernel` runs the
same iteration on NumPy arrays with integer rank keys of its own.

* :class:`UnhappyEdgeTracker` — the incrementally maintained ``edge ->
  sort key`` map.  Its one key family is the reference's ``repr((tail,
  head))`` string itself, not a global rank: the overlay appends nodes
  out of ``repr`` order, and ranks would shift under edge insertion.  A
  key is formatted only while its edge is unhappy — from a stable state,
  a handful of frontier edges per update.
* :func:`run_repair_loop` — the iteration itself, parameterized by how
  to enumerate the live edges incident to a node (the overlay scan of
  the mutable incremental view).

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

__all__ = ["UnhappyEdgeTracker", "run_repair_loop"]


class UnhappyEdgeTracker:
    """Incrementally maintained map of unhappy edges to their sort keys.

    Parameters
    ----------
    heads, tails, load:
        Live references to the caller's dense state arrays (the tracker
        reads them on every refresh; it never mutates them).
    ids:
        Live reference to the node ids by dense index; an unhappy edge's
        key is ``repr((ids[tail], ids[head]))``, the reference's order.
        The tracker covers nodes and edges appended to these lists later
        without any bookkeeping.
    """

    __slots__ = ("heads", "tails", "load", "ids", "unhappy")

    def __init__(
        self,
        heads: Sequence[int],
        tails: Sequence[int],
        load: Sequence[int],
        ids: Sequence,
    ) -> None:
        self.heads = heads
        self.tails = tails
        self.load = load
        self.ids = ids
        #: edge index -> sort key of its current (tail, head) direction.
        self.unhappy: Dict[int, str] = {}

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
        ids = self.ids
        unhappy = self.unhappy
        for e in edges:
            h = heads[e]
            t = tails[e]
            if load[h] - load[t] > 1:
                unhappy[e] = repr((ids[t], ids[h]))
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
        Tracker seeded from the delta frontier.
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
