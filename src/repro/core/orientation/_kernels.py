"""Int-array fast-path kernels for the stable orientation pipeline.

This module holds the compact counterparts of the orientation algorithms:

* :func:`sequential_flip_kernel` — the centralized flip baseline
  (:mod:`repro.core.orientation.sequential`);
* :func:`repair_kernel` — the synchronous repair baseline
  (:mod:`repro.core.orientation.repair`);
* :func:`stable_orientation_kernel` — the phase-based Theorem 5.1
  algorithm (:mod:`repro.core.orientation.phases`);
* :func:`bounded_orientation_kernel` — the k-bounded relaxation
  (:mod:`repro.core.orientation.bounded`, Theorem 7.5), the edge-customer
  specialisation of the Section 7 assignment phases.

The last two are one algorithm: O(Δ) phases of propose/accept, a token
dropping game, then flip and orient.  :func:`_run_phases` is that loop,
written once on NumPy ``int64`` arrays (every step a vector op over the
phase's frontier); the two kernels are thin wrappers that hand it four
inputs:

* the endpoint pair and scan order of the proposals — ``(edge_u,
  edge_v)`` in edge-index order for Theorem 5.1, ``(lo, hi)`` in
  customer-``repr`` order for the bounded kernel, both with ties going
  to the first endpoint;
* the level cap ``k`` of ``min(load, k)`` — ``Δ + 1`` for Theorem 5.1,
  which no load reaches;
* the phase game — the layered token dropping game of Lemma 5.2 solved
  by the compact proposal-game kernel, or the rank-2 hypergraph game of
  Theorem 7.1 — as a ``play`` closure that takes and returns arrays;
* the factory of the per-phase stats row and span attributes.

Theorem 5.1's ``play`` classifies its game in NumPy and hands the
endpoint arrays of only the token-bearing part to
:func:`~repro.core.token_dropping._kernels.game_from_arrays`, which
builds the game's ``array('q')`` CSR with one ``lexsort``; the proposal
game itself (:func:`~repro.core.token_dropping._kernels.
proposal_game_kernel`) plays each LOCAL round as NumPy vector ops over
the live nodes, and ``play`` checks the game's maximality with one mask
over its edges.  The bounded ``play`` hands its arrays to
:func:`~repro.core.assignment._kernels.hypergraph_phase_game_kernel`,
which plays the rank-2 game as per-round NumPy vector ops.  Both
kernels return lists of Python ``int`` and stats rows of ``int`` fields.

Each kernel runs the same algorithm as its reference on a
:class:`~repro.graphs.compact.CompactGraph`, touching only flat integer
arrays in the hot loop, and reproduces the reference implementation's
results *exactly* — same final orientation, same per-phase statistics,
same round counts — which the cross-validation suite asserts on hundreds
of seeded instances.

How reference tie-breaking is replayed in int-land
--------------------------------------------------
The reference path breaks ties by ``repr``: unhappy edges by
``repr((tail, head))``, edge customers by ``repr(("edge", u, v))`` and
game candidates by ``repr((vertex, customer))``.  The kernels replace
each of those string orders by an integer rank per tuple, computed once
per graph and memoized in ``graph.derived``, so "smallest repr first"
becomes "smallest int rank first" and the per-flip work involves no
hashing, boxing, or string formatting at all.

Dense ids are ``repr``-sorted, and the ``repr`` of a tuple of nodes is
the node ``repr`` strings joined by ``", "`` inside brackets.  So two
such strings compare like the dense-id tuples compare lexicographically,
given one predicate P (:meth:`~repro.graphs.compact.CompactGraph.
lexicographic_reprs`): node ``repr`` strings are distinct, and wherever
one is a proper prefix of another the longer one continues with a
character greater than ``","``.  P is an O(n) check over adjacent ids;
every builtin id type passes it.  When P holds, the lexicographic order
of the dense tuples is CSR slot order (rows ascend, and each row lists
its neighbours ascending), so every rank is a slot index read off the
CSR: no ``repr`` is formatted and nothing is sorted.  When P fails (only
a custom ``__repr__`` can fail it) the kernels format the ``repr``
strings, sort them, and rank each tuple by its string, the exact rule.
Where both apply they give the same ranks.

The sequential and repair kernels track unhappiness incrementally: a
flip changes the loads of exactly two nodes, so only the edges incident
to those nodes can change state (O(Δ) bookkeeping per flip versus the
reference path's full O(m log m) rescan).  The sequential kernel does it
per flip over Python lists; the repair kernel per iteration on NumPy
arrays, with one CSR gather over the endpoints of the whole flip batch.

Playing only the token-bearing part of a phase game
---------------------------------------------------
A token moves only inside its own weakly connected component of the
Lemma 5.2 game, and the components run independently, so
:func:`stable_orientation_kernel` plays only the components that hold a
token.  A token-free component makes no move, and its round count has a
closed form under the proposal algorithm's ``LEAVE`` rule: a node
with no game parents halts at round 0, and every other node halts at
the announce round three rounds after its last parent halts.  Its last
halt is round ``3·L``, for ``L`` its longest upward path; every game
edge climbs exactly one level, so ``L`` is a DP over the token-free
edges bucketed by head level, highest first, one vector step per bucket
(a bucket's heads are never its own tails).  The phase's round count is
``max(played rounds, 3·L)``, the round count of the full game.  The
played part is the same per-component execution as before (per-node
``random`` streams are keyed by node id), the round budget still comes
from the full game's height and degree, and the maximality check, vacuous
on token-free components, runs on the played game.  Late phases are
mostly token-free: at the 100k tier, a phase game of 52k edges may hold
two tokens.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import random
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.graphs.compact import CompactGraph
from repro.local_model.errors import AlgorithmError

if TYPE_CHECKING:
    import numpy as np


def _gc_paused(kernel):
    """Run ``kernel`` with the cyclic garbage collector paused.

    The kernels allocate hundreds of thousands of small tuples, lists and
    sets per phase and create no reference cycles, so the collector never
    frees anything there; yet its generation-2 passes over those live
    objects took ~20% of a 10^5-node phase run.  Reference counting still
    frees every object on time, and the caller's collector state is
    restored on exit.
    """

    @functools.wraps(kernel)
    def run(*args, **kwargs):
        if not gc.isenabled():
            return kernel(*args, **kwargs)
        gc.disable()
        try:
            return kernel(*args, **kwargs)
        finally:
            gc.enable()

    return run


def directed_ranks(graph: CompactGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Per-edge integer ranks of ``repr((tail, head))`` for both directions.

    ``rank_to_v[e]`` ranks the orientation pointing at ``edge_v[e]`` and
    ``rank_to_u[e]`` the reverse, among all ``2m``; comparing ranks is
    equivalent to comparing the reference path's ``repr`` strings.  When
    the graph's :meth:`~repro.graphs.compact.CompactGraph.
    lexicographic_reprs` holds, the ``repr`` order is the lexicographic
    order of the dense ``(tail, head)`` pairs, which is CSR slot order
    (rows ascend, and each row lists its neighbours ascending): the rank
    of ``(tail, head)`` is the slot of ``head`` in ``tail``'s row, one
    scatter of the slot numbers with no ``repr`` and no sort.  Otherwise
    (custom ``__repr__`` ids) the ranks come from sorting the ``2m``
    ``repr`` strings, the exact rule.  Both give the same ranks whenever
    both apply.  Returned as NumPy ``int64`` arrays and memoized on the
    (immutable) graph, so repeated kernel runs on the same instance build
    the table once.
    """
    cached = graph.derived.get("directed_ranks")
    if cached is not None:
        return cached
    import numpy as np

    m = graph.num_edges
    with obs.span("orientation.rank_keys", table="directed", edges=m) as sp:
        lexicographic = graph.lexicographic_reprs()
        sp.set(lexicographic=lexicographic)
        if lexicographic:
            ev = np.asarray(graph.edge_v, dtype=np.int64)
            slot_edge = np.asarray(graph.slot_edge, dtype=np.int64)
            # Row 0 holds the ranks towards ``edge_v``, row 1 the reverse.
            to_u = np.asarray(graph.indices, dtype=np.int64) != ev[slot_edge]
            rank = np.empty((2, m), dtype=np.int64)
            rank[to_u.astype(np.int64), slot_edge] = np.arange(2 * m)
        else:
            ids = graph.node_ids
            reprs: List[str] = []
            for u, v in zip(graph.edge_u, graph.edge_v):
                reprs.append(repr((ids[u], ids[v])))  # head = edge_v  (item 2e)
                reprs.append(repr((ids[v], ids[u])))  # head = edge_u  (item 2e + 1)
            rank = np.array(_ranks(reprs), dtype=np.int64).reshape(m, 2).T.copy()
    rank.setflags(write=False)
    ranks = (rank[0], rank[1])
    graph.derived["directed_ranks"] = ranks
    return ranks


def flip_budget(graph: CompactGraph) -> int:
    """The safety valve ``Σ deg(v)² + 1`` of the flip and repair loops.

    Every flip of an unhappy edge lowers the potential ``Σ load²`` by at
    least 2 and the potential lies in ``[0, Σ deg²]``, so no run can
    flip, or iterate, more often; the loops raise once they reach it.
    """
    import numpy as np

    degree = np.diff(np.asarray(graph.indptr, dtype=np.int64))
    return int(degree @ degree) + 1


def _csr_slots(indptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The CSR slots of every node in ``nodes``, row after row (one gather)."""
    import numpy as np

    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    slots = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    slots += np.arange(len(slots))
    return slots


def _ranks(keys: Sequence[str]) -> List[int]:
    """``rank[i]`` = position of ``keys[i]`` in ascending (stable) order."""
    rank = [0] * len(keys)
    for r, i in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
        rank[i] = r
    return rank


def sequential_flip_kernel(
    graph: CompactGraph,
    *,
    policy: str = "first",
    seed: int = 0,
    record_trace: bool = False,
    max_flips: Optional[int] = None,
    initial_heads: Optional[Sequence[int]] = None,
) -> Tuple[List[int], List[int], int, int, int, List[int]]:
    """Run the sequential flip algorithm on int arrays until stable.

    Parameters mirror
    :func:`~repro.core.orientation.sequential.sequential_flip_algorithm`;
    ``initial_heads`` is the dense head id per edge index (default: every
    edge points at ``edge_v``, i.e. the reference ``towards="max"``
    orientation).

    Returns
    -------
    (heads, loads, flips, initial_potential, final_potential, trace)
        Dense head id per edge, load per dense node, and the run
        statistics (``trace`` includes the initial potential first and is
        empty unless ``record_trace``).
    """
    rng = random.Random(seed)
    n = graph.num_nodes
    m = graph.num_edges
    eu = list(graph.edge_u)
    ev = list(graph.edge_v)
    indptr = list(graph.indptr)
    slot_edge = list(graph.slot_edge)
    rank_to_v, rank_to_u = (rank.tolist() for rank in directed_ranks(graph))

    if initial_heads is None:
        heads = list(ev)
        tails = list(eu)
    else:
        heads = list(initial_heads)
        tails = [eu[e] if heads[e] == ev[e] else ev[e] for e in range(m)]

    load = [0] * n
    for h in heads:
        load[h] += 1

    if max_flips is None:
        max_flips = flip_budget(graph)

    potential = sum(l * l for l in load)
    initial_potential = potential
    trace: List[int] = [potential] if record_trace else []

    unhappy = {}
    for e in range(m):
        h = heads[e]
        if load[h] - load[tails[e]] > 1:
            unhappy[e] = rank_to_v[e] if h == ev[e] else rank_to_u[e]

    flips = 0
    while unhappy:
        if flips >= max_flips:
            raise RuntimeError(
                f"sequential flip algorithm exceeded {max_flips} flips; "
                "the potential argument guarantees this cannot happen"
            )
        if policy == "first":
            e = min(unhappy.items(), key=itemgetter(1))[0]
        elif policy == "random":
            items = sorted(unhappy.items(), key=itemgetter(1))
            e = items[rng.randrange(len(items))][0]
        else:  # max_badness
            e = max(
                unhappy.items(),
                key=lambda kv: (load[heads[kv[0]]] - load[tails[kv[0]]], kv[1]),
            )[0]

        h = heads[e]
        t = tails[e]
        delta = 2 * (load[t] - load[h]) + 2
        if delta >= 0:  # pragma: no cover - guards the potential argument
            raise RuntimeError(
                "flipping an unhappy edge did not decrease the potential; "
                "this contradicts the paper's argument and indicates a bug"
            )
        heads[e] = t
        tails[e] = h
        load[h] -= 1
        load[t] += 1
        potential += delta
        flips += 1
        if record_trace:
            trace.append(potential)

        for x in (h, t):
            for s in range(indptr[x], indptr[x + 1]):
                f = slot_edge[s]
                fh = heads[f]
                if load[fh] - load[tails[f]] > 1:
                    unhappy[f] = rank_to_v[f] if fh == ev[f] else rank_to_u[f]
                else:
                    unhappy.pop(f, None)

    return heads, load, flips, initial_potential, potential, trace


# ----------------------------------------------------------------------
# The phase driver shared by Theorem 5.1 and the k-bounded relaxation
# ----------------------------------------------------------------------
def _run_phases(
    graph: CompactGraph,
    ends: Tuple[Sequence[int], Sequence[int]],
    order: Sequence[int],
    k: int,
    play: Callable[..., Tuple[np.ndarray, np.ndarray, int]],
    make_row: Callable[..., Tuple[object, Dict[str, int]]],
    *,
    max_phases: int,
    labels: Tuple[str, str, str, str],
    check_invariants: bool,
) -> Tuple[List[int], List[int], List]:
    """Run propose/accept/game/flip/orient phases until every edge is oriented.

    The one loop behind Theorem 5.1 and the k-bounded relaxation of
    Theorem 7.5.  A node's level is ``min(load, k)``; Theorem 5.1 passes
    ``k = Δ + 1``, which no load reaches.  Each phase:

    1. every unoriented edge, scanned in ``order``, proposes to its
       lower-level endpoint: for ``(a, b) = ends``, ``b`` if
       ``level[b] < level[a]``, else ``a``;
    2. every proposed-to node accepts the first proposal to reach it —
       the smallest-``repr`` one, as ``order`` is the reference order;
    3. ``play(heads, level, game_edges, acc_nodes, acc_edges, height)``
       solves the game on the badness-1 edges (ascending; tail = child,
       head = parent, Lemma 5.2) with tokens on the accepting nodes
       ``acc_nodes``, whose accepted edges are ``acc_edges`` (both in
       scan order), returning ``(move_edges, move_heads, rounds)``;
    4. every move re-points ``move_edges[i]`` at ``move_heads[i]``;
    5. every accepted edge is oriented towards its accepting node.

    All state lives in NumPy ``int64`` arrays (``heads``, ``load``,
    ``level``, ``badness``; ``heads`` is ``-1`` while unoriented), and
    ``play`` receives and returns arrays.  Each step is a vector op over
    the phase's frontier: proposals are a ``where`` over the pending
    edges, acceptance the smallest scan position per target from
    ``minimum.at``, moves and accepts a scatter of heads with
    ``add.at``/``subtract.at`` on loads, and levels ``minimum(load, k)``
    over the nodes whose load changed (a bool scatter, since node ids
    are dense).  Badness is refreshed only where it can have changed: the
    incident slots of the nodes whose level changed *net* over the phase
    (one ragged CSR gather), plus the moved and accepted edges, which
    covers a new head whose level stayed at the cap.  The only
    whole-array work per phase is vectorized: ``flatnonzero(badness ==
    1)`` (the next game, already ascending) and ``badness.max()`` over
    the m edges, and ``level.max()`` (the game height) and the bool
    scatters of the first proposals and changed loads over the n nodes.
    No per-phase Python loop runs over all nodes or all edges.

    ``make_row(phase, proposals, accepted, game_edges, height, rounds,
    moves, oriented, max_badness)`` returns a phase's stats row and span
    attributes; it gets Python ``int``\\ s.  ``labels`` is ``(span name,
    problem noun, phase-budget lemma, badness invariant)``.  Returns
    ``(heads, load, per_phase)`` with ``heads``/``load`` as lists of
    Python ``int``.  Callers run it under :func:`_gc_paused`, which also
    covers their rank-table setup.
    """
    import numpy as np

    span_name, noun, budget_lemma, invariant = labels
    a_end = np.asarray(ends[0], dtype=np.int64)
    b_end = np.asarray(ends[1], dtype=np.int64)
    n = graph.num_nodes
    m = graph.num_edges
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    slot_edge = np.asarray(graph.slot_edge, dtype=np.int64)

    heads = np.full(m, -1, dtype=np.int64)
    load = np.zeros(n, dtype=np.int64)
    level = np.zeros(n, dtype=np.int64)
    # ``level[head] - level[tail]`` of every oriented edge, 0 while
    # unoriented: the badness-1 edges are the next phase's game edges.
    badness = np.zeros(m, dtype=np.int64)
    # The unoriented edges in scan order.
    pending = np.asarray(order, dtype=np.int64)
    per_phase: List = []
    phases = 0
    oriented = 0

    while oriented < m:
        phases += 1
        if phases > max_phases:
            raise AlgorithmError(
                f"stable {noun} exceeded the phase budget of {max_phases}; "
                f"this contradicts {budget_lemma} and indicates a bug"
            )

        with obs.span(span_name, phase=phases) as psp:
            # Steps 1 + 2: propose, then accept the first proposal per
            # target (the smallest scan position), in scan order.
            a = a_end[pending]
            b = b_end[pending]
            target = np.where(level[b] < level[a], b, a)
            proposals = len(pending)
            earliest = np.full(n, proposals)
            np.minimum.at(earliest, target, np.arange(proposals))
            first = np.sort(earliest[earliest < proposals])
            acc_edges = pending[first]
            acc_nodes = target[first]

            # Step 3, on the badness as refreshed at the end of the last phase.
            game_edges = np.flatnonzero(badness == 1)
            height = int(level.max())
            move_edges, move_heads, rounds = play(
                heads, level, game_edges, acc_nodes, acc_edges, height
            )

            # Steps 4 + 5: moves, then the accepted edges (no old head).
            old_heads = heads[move_edges]
            heads[move_edges] = move_heads
            heads[acc_edges] = acc_nodes
            np.subtract.at(load, old_heads, 1)
            np.add.at(load, move_heads, 1)
            load[acc_nodes] += 1
            oriented += len(first)
            pending = pending[heads[pending] < 0]

            # Re-level the nodes whose load changed; the ones whose level
            # changed net have their incident slots refreshed, together
            # with the moved and accepted edges, whose head changed.
            changed = np.zeros(n, dtype=bool)
            changed[old_heads] = changed[move_heads] = changed[acc_nodes] = True
            changed = np.flatnonzero(changed)
            new_level = np.minimum(load[changed], k)
            touched = changed[new_level != level[changed]]
            level[changed] = new_level
            slots = _csr_slots(indptr, touched)
            refreshed = len(slots)
            if obs.enabled():
                obs.add("orientation.frontier.game_edges", len(game_edges))
                obs.add("orientation.frontier.touched_nodes", len(touched))
                obs.add("orientation.frontier.refreshed_slots", refreshed)
            edges = np.concatenate((slot_edge[slots], move_edges, acc_edges))
            h = heads[edges]
            edges = edges[h >= 0]
            h = h[h >= 0]
            t = np.where(h == b_end[edges], a_end[edges], b_end[edges])
            badness[edges] = level[h] - level[t]

            max_badness = max(int(badness.max()), 0)
            if check_invariants and max_badness > 1:
                raise AlgorithmError(
                    f"phase {phases} ended with max badness {max_badness} > 1; "
                    f"this contradicts {invariant} and indicates a bug"
                )
            row, attrs = make_row(
                phases,
                proposals,
                len(first),
                len(game_edges),
                height,
                rounds,
                len(move_edges),
                oriented,
                max_badness,
            )
            per_phase.append(row)
            psp.set(**attrs)

    if check_invariants:
        tails = np.where(heads == b_end, a_end, b_end)
        unhappy = np.flatnonzero(level[heads] - level[tails] > 1).tolist()
        if unhappy:
            ids = graph.node_ids
            violations = []
            for e in unhappy:
                h = int(heads[e])
                t = int(tails[e])
                violations.append(
                    f"edge {ids[t]!r} -> {ids[h]!r} is unhappy: level({ids[h]!r})="
                    f"{level[h]} > level({ids[t]!r})+1={level[t] + 1}"
                )
            raise AlgorithmError(
                f"final {noun} is not stable: " + "; ".join(violations)
            )
    return heads.tolist(), load.tolist(), per_phase


def _weak_components(num_nodes: int, tails: np.ndarray, heads: np.ndarray):
    """Weakly connected component label per node of a directed edge list.

    ``tails``/``heads`` are NumPy arrays of node ids in ``range(num_nodes)``;
    returns ``label`` with ``label[x] == label[y]`` iff ``x`` and ``y``
    are joined by the edges.  Min-label hooking with pointer jumping:
    each round hooks every root to the smallest root across its edges,
    then points every node straight at its root, until every edge joins
    equal labels.  Labels only decrease and ``label[x] <= x`` throughout,
    so the forest stays acyclic and each round merges at least one pair
    of roots.
    """
    import numpy as np

    label = np.arange(num_nodes)
    while True:
        lt = label[tails]
        lh = label[heads]
        if np.array_equal(lt, lh):
            return label
        low = np.minimum(lt, lh)
        np.minimum.at(label, lt, low)
        np.minimum.at(label, lh, low)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


# ----------------------------------------------------------------------
# The phase-based stable orientation algorithm (Theorem 5.1)
# ----------------------------------------------------------------------
@_gc_paused
def stable_orientation_kernel(
    graph: CompactGraph,
    *,
    tie_break: str = "min",
    seed: int = 0,
    check_invariants: bool = True,
    max_phases: Optional[int] = None,
) -> Tuple[List[int], List[int], int, int, int, List]:
    """Run the phase-based stable orientation algorithm on int arrays.

    The compact counterpart of
    :func:`~repro.core.orientation.phases.run_stable_orientation_reference`:
    :func:`_run_phases` with levels equal to loads and edges proposing in
    index order.  Its ``play`` classifies each phase's token dropping
    game in NumPy: tails, game degrees and the round budget, then the
    weakly connected components (:func:`_weak_components`); only the
    components holding a token are built *directly* as a dense game
    from their NumPy endpoint arrays
    (:func:`repro.core.token_dropping._kernels.game_from_arrays` — no
    dict instance, ``to_network`` round-trip or per-edge tuple) and
    solved by the compact proposal-game kernel; the builder's ``order``
    maps each consumed game edge back to the graph edge it flips.  The
    token-free ones add only
    their closed-form round count ``3·L`` (see the module docstring).
    The ``orientation.frontier.played_edges`` and ``free_rounds``
    counters record, per phase, the played game's size and that ``3·L``
    term.  Because dense node ids
    are ``repr``-sorted and edge indices follow the reference's
    canonical-key ``repr`` order, the reference tie-breaks ("propose to
    the canonical endpoint on a load tie", "accept the smallest-``repr``
    edge", the game's ``min``/``max``/``random`` policies) are all
    replayed exactly: orientations, per-phase statistics, and round counts
    match the dict path bit for bit.

    Returns
    -------
    (heads, loads, phases, game_rounds, communication_rounds, per_phase)
        Dense head id per edge, load per dense node, and the run counters
        with the per-phase :class:`~repro.core.orientation.phases.
        PhaseStats` rows.
    """
    from repro.core.orientation.phases import (
        PHASE_OVERHEAD_ROUNDS,
        PhaseStats,
    )
    from repro.core.token_dropping._kernels import (
        _node_rngs,
        game_from_arrays,
        proposal_game_kernel,
    )
    from repro.core.tie_break import check_tie_break
    from repro.core.token_dropping.game import proposal_round_budget
    from repro.core.token_dropping.proposal import ROUNDS_PER_GAME_ROUND
    from repro.core.token_dropping.traversal import InvalidSolutionError

    n = graph.num_nodes
    m = graph.num_edges
    delta = graph.max_degree()
    if max_phases is None:
        # Lemma 5.5: the explicit O(Δ) phase budget of the reference path.
        max_phases = 4 * (delta + 1) + 4
    check_tie_break(tie_break)
    import numpy as np

    eu = np.asarray(graph.edge_u, dtype=np.int64)
    ev = np.asarray(graph.edge_v, dtype=np.int64)
    ids = graph.node_ids

    def play(heads, level, game_edges, acc_nodes, acc_edges, height):
        # Classify the Lemma 5.2 game: tails, the game's own node ids
        # (``nodes`` ascending, ``gt``/``gh`` per edge), degrees and
        # components.  Nodes off the game edges (tokenless, or token
        # holders with no game neighbours) halt at round 0 with no LEAVE
        # fan-out in the reference execution, so they never enter it.
        h = heads[game_edges]
        t = np.where(h == ev[game_edges], eu[game_edges], ev[game_edges])
        in_game = np.zeros(n, dtype=bool)
        in_game[t] = in_game[h] = True
        nodes = np.flatnonzero(in_game)
        local = np.cumsum(in_game) - 1
        gt = local[t]
        gh = local[h]
        # The reference budget: three LOCAL rounds per game round of the
        # Theorem 4.1 bound computed from the full game's height/degree.
        game_degree = int(np.bincount(np.concatenate((t, h))).max()) if len(t) else 0
        max_rounds = ROUNDS_PER_GAME_ROUND * proposal_round_budget(
            height, game_degree
        )

        # Tokens only move inside their own component, so only the
        # components holding one are played.
        comp = _weak_components(len(nodes), gt, gh)
        is_acc = np.zeros(n, dtype=bool)
        is_acc[acc_nodes] = True
        token = is_acc[nodes]
        bearing = np.zeros(len(nodes), dtype=bool)
        bearing[comp[token]] = True
        played = bearing[comp]
        played_edge = played[gt]

        # A token-free component has a closed form: a node with no
        # parents halts at round 0 and every other node at the announce
        # round three rounds after its last parent halts, so the last
        # halt is round 3·L for L its longest upward path.  Every game
        # edge climbs one level, so L is a DP over head levels, top down:
        # a bucket's heads are never its tails, so it is one vector step.
        free = ~played_edge
        head_level = level[h[free]]
        by_level = np.argsort(-head_level)
        ft = gt[free][by_level]
        fh = gh[free][by_level]
        cuts = np.flatnonzero(np.diff(head_level[by_level])) + 1
        climb = np.zeros(len(nodes), dtype=np.int64)
        for bt, bh in zip(np.split(ft, cuts), np.split(fh, cuts)):
            np.maximum.at(climb, bt, climb[bh] + 1)
        free_rounds = 3 * int(climb.max()) if len(nodes) else 0
        num_played = int(played_edge.sum())
        if obs.enabled():
            obs.add("orientation.frontier.played_edges", num_played)
            obs.add("orientation.frontier.free_rounds", free_rounds)
        if not num_played:
            return game_edges[:0], game_edges[:0], free_rounds

        # The played game, in its own ascending ids ``sub``.
        played_nodes = nodes[played].tolist()
        sub = np.cumsum(played) - 1
        child = sub[gt[played_edge]]
        parent = sub[gh[played_edge]]
        game, order = game_from_arrays(
            len(played_nodes), token[played], level[nodes[played]], child, parent
        )
        run = proposal_game_kernel(
            game,
            max_rounds,
            tie_break=tie_break,
            rngs=_node_rngs(tie_break, seed, tuple(ids[g] for g in played_nodes))
            if tie_break == "random"
            else None,
        )

        if check_invariants:
            # Maximality (output rule 3) is the part of the solution
            # validation that guards Lemma 5.4; rules 1 and 2 hold by
            # construction of the game kernel.  A token is stuck short of
            # a free child over an unconsumed edge; the first one in
            # (parent, child) order is reported.
            child = child[order]
            parent = parent[order]
            final = run.token
            stuck = ~run.consumed & (final[parent] >= 0) & (final[child] < 0)
            if stuck.any():
                p, c = min(zip(parent[stuck].tolist(), child[stuck].tolist()))
                raise InvalidSolutionError(
                    f"not maximal: token at {ids[played_nodes[p]]!r} can "
                    f"still move to {ids[played_nodes[c]]!r}"
                )

        # Every consumed game edge flips its graph edge to the tail.
        moved = game_edges[played_edge][order][run.consumed]
        old = heads[moved]
        return (
            moved,
            np.where(old == ev[moved], eu[moved], ev[moved]),
            max(run.rounds, free_rounds),
        )

    def make_row(
        phase, proposals, accepted, game_edges, height, rounds, moves, oriented, badness
    ):
        row = PhaseStats(
            phase=phase,
            proposals=proposals,
            accepted=accepted,
            tokens=accepted,
            # ceil, as in reconstruct_solution
            token_dropping_game_rounds=-(-rounds // 3),
            token_dropping_communication_rounds=rounds,
            token_dropping_height=height,
            edges_flipped=moves,
            edges_oriented_total=oriented,
            max_badness_after=badness,
        )
        return row, dict(
            proposals=proposals,
            accepted=accepted,
            tokens=accepted,
            game_rounds=row.token_dropping_game_rounds,
            communication_rounds=rounds,
            height=height,
            edges_flipped=moves,
            oriented_total=oriented,
            max_badness=badness,
        )

    heads, load, per_phase = _run_phases(
        graph,
        (eu, ev),
        np.arange(m),
        delta + 1,
        play,
        make_row,
        max_phases=max_phases,
        labels=("orientation.phase", "orientation", "Lemma 5.5", "Lemma 5.4"),
        check_invariants=check_invariants,
    )
    phases = len(per_phase)
    overhead = PHASE_OVERHEAD_ROUNDS * phases
    return (
        heads,
        load,
        phases,
        overhead + sum(p.token_dropping_game_rounds for p in per_phase),
        overhead + sum(p.token_dropping_communication_rounds for p in per_phase),
        per_phase,
    )


# ----------------------------------------------------------------------
# The synchronous repair baseline
# ----------------------------------------------------------------------
def _coin_flips(rng: random.Random, count: int) -> np.ndarray:
    """``count`` draws of ``rng.random() < 0.5`` at once, as a bool array.

    The draws replay ``rng``'s MT19937 stream in NumPy
    (:mod:`repro._mt19937`), and ``rng`` continues exactly as if it had
    made the ``count`` calls itself.
    """
    from repro._mt19937 import hand_back, numpy_bits, res53

    bits = numpy_bits(rng)
    draws = res53(bits.random_raw(2 * count))
    hand_back(rng, bits)
    return draws < 0.5


@_gc_paused
def repair_kernel(
    graph: CompactGraph,
    *,
    seed: int = 0,
    max_iterations: Optional[int] = None,
    initial_heads: Optional[Sequence[int]] = None,
) -> Tuple[List[int], List[int], "object"]:
    """Run the synchronous repair baseline on NumPy arrays.

    The compact counterpart of :func:`~repro.core.orientation.repair.
    synchronous_repair_orientation_reference`.  The reference's only
    randomness is one ``random.Random(seed)`` consumed first by the
    coin-per-edge initial orientation (edges in canonical-key ``repr``
    order, which is edge-index order) and then by ``rng.shuffle`` over the
    repr-sorted unhappy list each iteration.  The coins are drawn in one
    vector by replaying the generator's MT19937 stream in NumPy
    (:func:`_coin_flips`), which leaves ``rng`` in the state the ``m``
    scalar draws would.  ``shuffle``'s stream consumption depends only on
    the list length, so shuffling the rank-sorted edge-index list yields
    the exact reference permutation; the greedy conflict-free pass over
    it is the reference rule, run in Python over a ``bytearray``.  The
    per-iteration flip sets, statistics, and final orientation all match
    bit for bit.

    State is ``heads``, ``tails`` and ``load`` as NumPy ``int64`` arrays.
    The selected batch is conflict-free (no node is an endpoint of two of
    its edges), so the flip is one fancy-indexed assignment.  An edge's
    unhappiness depends only on its direction and its endpoint loads, and
    a flip changes the loads of exactly its two endpoints, so an edge with
    no flipped endpoint keeps its state.  Every edge that was unhappy has
    a flipped endpoint too: the greedy pass is maximal, so it skipped an
    unhappy edge only for an endpoint that a selected edge had taken.  So
    the next unhappy set lies within the edges in the CSR slots of the
    flipped endpoints (one ragged gather), deduplicated by a sort and an
    adjacent-difference mask and filtered by ``load[head] - load[tail] >
    1``: O(touched slots) work per iteration, never O(m).

    ``initial_heads`` is the dense head id per edge index (default: the
    seeded random complete orientation of the reference path).  Returns
    ``(heads, load, stats)`` with ``heads``/``load`` as lists of Python
    ``int`` and a :class:`~repro.core.orientation.repair.RepairRunStats`.
    """
    import numpy as np

    from repro.core.orientation.repair import (
        ROUNDS_PER_REPAIR_ITERATION,
        RepairRunStats,
    )

    rng = random.Random(seed)
    n = graph.num_nodes
    m = graph.num_edges
    eu = np.asarray(graph.edge_u, dtype=np.int64)
    ev = np.asarray(graph.edge_v, dtype=np.int64)
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    slot_edge = np.asarray(graph.slot_edge, dtype=np.int64)
    rank_to_v, rank_to_u = directed_ranks(graph)

    if initial_heads is None:
        heads = np.where(_coin_flips(rng, m), ev, eu)
    else:
        heads = np.array(initial_heads, dtype=np.int64)
    tails = eu + ev - heads
    load = np.bincount(heads, minlength=n)

    if max_iterations is None:
        max_iterations = flip_budget(graph)

    unhappy = np.flatnonzero(load[heads] - load[tails] > 1)
    stats = RepairRunStats(initial_unhappy=len(unhappy))
    # Hoisted out of the loop: the disabled-metric check, and the conflict
    # bitmap, wiped per iteration by clearing only the entries the
    # selection marked (a fresh O(n) bitmap per iteration would dwarf the
    # work once the unhappy set is a small frontier of a large graph).
    traced = obs.enabled()
    used = bytearray(n)
    with obs.span(
        "orientation.repair", nodes=n, edges=m, initial_unhappy=len(unhappy)
    ) as sp:
        while len(unhappy):
            if stats.iterations >= max_iterations:
                raise RuntimeError(
                    f"repair loop exceeded {max_iterations} iterations; "
                    "the potential argument guarantees this cannot happen"
                )

            # Reference order (ascending rank of the current direction),
            # then the seeded shuffle and the greedy conflict-free pass:
            # no node participates in two flips.
            to_v = heads[unhappy] == ev[unhappy]
            rank = np.where(to_v, rank_to_v[unhappy], rank_to_u[unhappy])
            batch = unhappy[rank.argsort()].tolist()
            rng.shuffle(batch)
            order = np.array(batch, dtype=np.int64)
            selected: List[int] = []
            for e, t, h in zip(batch, tails[order].tolist(), heads[order].tolist()):
                if used[t] or used[h]:
                    continue
                selected.append(e)
                used[t] = 1
                used[h] = 1

            flipped = np.array(selected, dtype=np.int64)
            old_heads = heads[flipped]
            old_tails = tails[flipped]
            heads[flipped] = old_tails
            tails[flipped] = old_heads
            load[old_heads] -= 1
            load[old_tails] += 1
            touched = np.concatenate((old_heads, old_tails))
            for x in touched.tolist():
                used[x] = 0

            edges = slot_edge[_csr_slots(indptr, touched)]
            edges.sort()
            edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
            unhappy = edges[load[heads[edges]] - load[tails[edges]] > 1]

            stats.iterations += 1
            stats.communication_rounds += ROUNDS_PER_REPAIR_ITERATION
            stats.total_flips += len(selected)
            stats.flips_per_iteration.append(len(selected))
            if traced:
                obs.add("repair.iterations")
                obs.observe("repair.unhappy_edges", len(batch))
                obs.observe("repair.flips_per_iteration", len(selected))
        sp.set(
            iterations=stats.iterations,
            flips=stats.total_flips,
            communication_rounds=stats.communication_rounds,
        )

    return heads.tolist(), load.tolist(), stats


# ----------------------------------------------------------------------
# The k-bounded stable orientation algorithm (Sections 1.4 / 7.3)
# ----------------------------------------------------------------------
def _edge_customer_ranks(graph: CompactGraph):
    """Rank tables of the edge-customer view, memoized on the graph.

    Edge customers are labelled ``("edge", u, v)`` with endpoints in
    ``repr``-sorted order; dense interning is ``repr``-sorted, so the
    label's endpoint order is (min, max) of the dense endpoints.  Returns
    ``(lo, hi, cust_order, pair_rank)`` as NumPy ``int64`` arrays, where
    ``cust_order`` is the ascending customer-``repr`` scan order and
    ``pair_rank[2e + i]`` ranks, among all ``2m``, the ``repr`` of the
    ``(endpoint, label)`` tuple of edge ``e``'s ``lo`` (``i = 0``) or
    ``hi`` (``i = 1``) endpoint — the ranks by which the hypergraph
    game's proposers and heads pick.  When :meth:`~repro.graphs.compact.
    CompactGraph.lexicographic_reprs` holds, those ``repr`` orders are
    the lexicographic orders of the dense tuples ``(lo, hi)`` and ``(x,
    lo, hi)``, and both are CSR slot order: row ``x`` lists its incident
    edges by ascending neighbour, which is ascending ``(lo, hi)``.  So
    ``cust_order`` lists each edge at its slot in row ``lo`` and
    ``pair_rank`` is the edge's slot in row ``x``, read off with no
    ``repr`` and no sort.  Otherwise (custom ``__repr__`` ids) both come
    from sorting the ``repr`` strings, the exact rule.
    """
    cached = graph.derived.get("edge_customer_ranks")
    if cached is not None:
        return cached
    import numpy as np

    m = graph.num_edges
    with obs.span("orientation.rank_keys", table="edge_customer", edges=m) as sp:
        eu = np.asarray(graph.edge_u, dtype=np.int64)
        ev = np.asarray(graph.edge_v, dtype=np.int64)
        lo = np.minimum(eu, ev)
        hi = np.maximum(eu, ev)
        lexicographic = graph.lexicographic_reprs()
        sp.set(lexicographic=lexicographic)
        if lexicographic:
            slot_edge = np.asarray(graph.slot_edge, dtype=np.int64)
            lo_row = np.asarray(graph.indices, dtype=np.int64) == hi[slot_edge]
            cust_order = slot_edge[lo_row]
            pair_rank = np.empty(2 * m, dtype=np.int64)
            pair_rank[2 * slot_edge + ~lo_row] = np.arange(2 * m)
        else:
            ids = graph.node_ids
            ends = list(zip(lo.tolist(), hi.tolist()))
            labels = [("edge", ids[a], ids[b]) for a, b in ends]
            label_reprs = list(map(repr, labels))
            cust_order = np.array(
                sorted(range(m), key=label_reprs.__getitem__), dtype=np.int64
            )
            pair_reprs: List[str] = []
            for (a, b), label in zip(ends, labels):
                pair_reprs.append(repr((ids[a], label)))
                pair_reprs.append(repr((ids[b], label)))
            pair_rank = np.array(_ranks(pair_reprs), dtype=np.int64)

    cached = (lo, hi, cust_order, pair_rank)
    graph.derived["edge_customer_ranks"] = cached
    return cached


@_gc_paused
def bounded_orientation_kernel(
    graph: CompactGraph,
    *,
    k: int = 2,
    tie_break: str = "min",
    seed: int = 0,
    check_invariants: bool = True,
) -> Tuple[List[int], List[int], int, int, List]:
    """Run the k-bounded stable orientation algorithm on int arrays.

    The compact counterpart of :func:`~repro.core.orientation.bounded.
    run_bounded_stable_orientation_reference`, which solves it by
    translating every edge ``{u, v}`` into a degree-2 customer
    ``("edge", u, v)`` and running the Section 7 assignment phases with
    effective loads ``min(load, k)``.  This kernel runs that edge-customer
    specialisation as :func:`_run_phases` with level cap ``k``: edges
    propose in customer-``repr`` order, and the embedded rank-2
    hypergraph proposal games (Theorem 7.1) run on NumPy arrays
    (:func:`~repro.core.assignment._kernels.hypergraph_phase_game_kernel`)
    with the reference's ``repr`` tie-breaks replayed through the tables
    of :func:`_edge_customer_ranks` — the customer scan order for the
    accept step and ``(vertex, customer)`` pair ranks for the game's
    picks.  Assignments, per-phase statistics, and game-round counts
    match the dict path bit for bit.

    Returns
    -------
    (choice, loads, phases, game_rounds, per_phase)
        Dense assigned-server (head) per edge, load per dense node, and
        the run counters with the per-phase :class:`~repro.core.
        assignment.algorithm.AssignmentPhaseStats` rows.
    """
    import numpy as np

    from repro.core.assignment._kernels import hypergraph_phase_game_kernel
    from repro.core.assignment.algorithm import (
        PHASE_OVERHEAD_ROUNDS,
        AssignmentPhaseStats,
    )
    from repro.core.tie_break import check_tie_break
    from repro.core.token_dropping.game import proposal_round_budget

    check_tie_break(tie_break)
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    slot_edge = np.asarray(graph.slot_edge, dtype=np.int64)
    lo, hi, cust_order, pair_rank = _edge_customer_ranks(graph)

    # Per-phase game scratch the game kernel reads and writes, reset
    # frontier-sized after every game.
    live = np.zeros(graph.num_edges, dtype=bool)
    occupied = np.zeros(graph.num_nodes, dtype=bool)

    def play(choice, level, game_edges, acc_nodes, acc_edges, height):
        # The per-phase hypergraph token dropping instance: levels are
        # effective loads, hyperedges the badness-1 customers (head =
        # assigned server), tokens on the accepting servers.
        game_vertices, incidence = np.unique(
            np.concatenate((lo[game_edges], hi[game_edges])), return_counts=True
        )
        max_vertex_degree = int(incidence.max()) if len(incidence) else 0
        max_game_rounds = proposal_round_budget(height, max_vertex_degree)
        live[game_edges] = True
        occupied[acc_nodes] = True

        # The Theorem 7.1 proposal strategy on the rank-2 game.  Only
        # endpoints of live hyperedges can ever have options, so the game
        # scans no other vertex (the reference scans them too, but they
        # make no choices and consume no randomness).
        rounds, move_edges, move_heads = hypergraph_phase_game_kernel(
            indptr=indptr,
            slot_edge=slot_edge,
            choice=choice,
            live=live,
            occupied=occupied,
            game_vertices=game_vertices,
            lo=lo,
            pair_rank=pair_rank,
            tie_break=tie_break,
            rng=random.Random(seed),
            max_game_rounds=max_game_rounds,
        )

        if check_invariants:
            # Maximality of the game outcome (the only validation rule not
            # guaranteed by construction): no occupied head may still have
            # a live hyperedge towards an unoccupied child.  Consumed game
            # edges had their ``live`` bit cleared by the game kernel.
            h = choice[game_edges]
            lo_game = lo[game_edges]
            hi_game = hi[game_edges]
            other = np.where(h == hi_game, lo_game, hi_game)
            stuck = game_edges[live[game_edges] & occupied[h] & ~occupied[other]]
            if len(stuck):
                ids = graph.node_ids
                e = int(stuck[0])
                label = ("edge", ids[lo[e]], ids[hi[e]])
                raise AlgorithmError(
                    "invalid hypergraph token dropping solution: "
                    f"not maximal at customer {label!r}"
                )

        # The only ``occupied`` bits ever set belong to accepting servers
        # and pass targets.
        live[game_edges] = False
        occupied[acc_nodes] = False
        occupied[move_heads] = False
        return move_edges, move_heads, rounds

    def make_row(
        phase, proposals, accepted, game_edges, height, rounds, moves, oriented, badness
    ):
        row = AssignmentPhaseStats(
            phase=phase,
            proposals=proposals,
            accepted=accepted,
            tokens=accepted,
            game_hyperedges=game_edges,
            token_dropping_game_rounds=rounds,
            token_dropping_height=height,
            reassignments=moves,
            customers_assigned_total=oriented,
            max_badness_after=badness,
        )
        return row, dataclasses.asdict(row)

    choice, load, per_phase = _run_phases(
        graph,
        (lo, hi),
        cust_order,
        k,
        play,
        make_row,
        # Lemma 7.2: the explicit O(C·S) phase budget, C = 2 for edges.
        max_phases=4 * (2 + 1) * (int(np.diff(indptr).max(initial=0)) + 1) + 4,
        labels=(
            "orientation.bounded_phase",
            "assignment",
            "Lemma 7.2",
            "the Section 7.2 invariant",
        ),
        check_invariants=check_invariants,
    )
    phases = len(per_phase)
    game_rounds = PHASE_OVERHEAD_ROUNDS * phases + sum(
        p.token_dropping_game_rounds for p in per_phase
    )
    return choice, load, phases, game_rounds, per_phase
