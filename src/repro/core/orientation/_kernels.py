"""Int-array fast-path kernels for the stable orientation pipeline.

This module holds the compact counterparts of the orientation algorithms:

* :func:`sequential_flip_kernel` — the centralized flip baseline
  (:mod:`repro.core.orientation.sequential`);
* :func:`stable_orientation_kernel` — the phase-based Theorem 5.1
  algorithm (:mod:`repro.core.orientation.phases`), building each phase's
  token dropping game directly as int arrays and chaining into the
  compact proposal-game kernel of
  :mod:`repro.core.token_dropping._kernels`;
* :func:`repair_kernel` — the synchronous repair baseline
  (:mod:`repro.core.orientation.repair`);
* :func:`bounded_orientation_kernel` — the k-bounded relaxation
  (:mod:`repro.core.orientation.bounded`), running the edge-customer
  specialisation of the Section 7 assignment phases and their rank-2
  hypergraph proposal games entirely on flat arrays.

Each kernel runs the same algorithm on a
:class:`~repro.graphs.compact.CompactGraph`, touching only flat integer
arrays in the hot loop, and reproduces the reference implementation's
results *exactly* — same final orientation, same per-phase statistics,
same round counts — which the cross-validation suite asserts on hundreds
of seeded instances.

How reference tie-breaking is replayed in int-land
--------------------------------------------------
The reference path orders unhappy edges by ``repr((tail, head))``.  Each
edge has exactly two possible oriented tuples, so the kernel computes the
``repr`` of all ``2m`` of them **once** at setup, sorts them, and stores
the two integer ranks per edge.  From then on "smallest repr first"
becomes "smallest int rank first" and the per-flip work involves no
hashing, boxing, or string formatting at all.  Unhappiness is tracked
incrementally: a flip changes the loads of exactly two nodes, so only the
edges incident to those nodes can change state (O(Δ) bookkeeping per flip
versus the reference path's full O(m log m) rescan).
"""

from __future__ import annotations

import functools
import gc
import random
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.graphs.compact import CompactGraph
from repro.local_model.errors import AlgorithmError


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


def directed_ranks(graph: CompactGraph) -> Tuple[List[int], List[int]]:
    """Per-edge integer ranks of ``repr((tail, head))`` for both directions.

    ``rank_to_v[e]`` ranks the orientation pointing at ``edge_v[e]`` and
    ``rank_to_u[e]`` the reverse; comparing ranks is equivalent to
    comparing the reference path's ``repr`` strings.  Memoized on the
    (immutable) graph, so repeated kernel runs on the same instance pay
    the ``repr`` sort exactly once.
    """
    cached = graph.derived.get("directed_ranks")
    if cached is not None:
        return cached
    ids = graph.node_ids
    m = graph.num_edges
    reprs: List[str] = []
    for e in range(m):
        u = ids[graph.edge_u[e]]
        v = ids[graph.edge_v[e]]
        reprs.append(repr((u, v)))  # head = edge_v  (slot 2e)
        reprs.append(repr((v, u)))  # head = edge_u  (slot 2e + 1)
    order = sorted(range(2 * m), key=reprs.__getitem__)
    rank = [0] * (2 * m)
    for r, slot in enumerate(order):
        rank[slot] = r
    ranks = (rank[0::2], rank[1::2])
    graph.derived["directed_ranks"] = ranks
    return ranks


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
    rank_to_v, rank_to_u = directed_ranks(graph)

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
        max_flips = sum((indptr[i + 1] - indptr[i]) ** 2 for i in range(n)) + 1

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
# The phase-based stable orientation algorithm (Theorem 5.1)
# ----------------------------------------------------------------------
def _solve_phase_game(
    eu: Sequence[int],
    ev: Sequence[int],
    ids: Sequence,
    sub: List[int],
    load: Sequence[int],
    heads: Sequence[int],
    game_edge_list: Sequence[int],
    accepted_edge: Dict[int, int],
    height: int,
    tie_break: str,
    seed: int,
    check_invariants: bool,
) -> Tuple[List[int], int]:
    """Build and solve one phase's token dropping game in-process.

    ``game_edge_list`` is the phase's badness-1 edge set in ascending
    order (the reference scan order); ``sub`` is a caller-owned dense-id
    -> game-id scratch map of value -1 everywhere, restored before
    returning.  Returns ``(consumed_edges, communication_rounds)`` where
    ``consumed_edges`` lists the graph edges consumed by a token pass —
    exactly the edges step 4 must flip — in game-edge order (ascending
    ``(tail, head)`` dense game ids), not in graph-edge order.

    The game's connected components never exchange messages, but they
    are solved in this one call: splitting them across worker processes
    cost more than it saved on every measured instance.
    """
    from repro.core.token_dropping._kernels import (
        _node_rngs,
        game_from_arrays,
        proposal_game_kernel,
    )
    from repro.core.token_dropping.traversal import InvalidSolutionError

    game_edges: List[Tuple[int, int, int]] = []
    participants: List[int] = []
    for e in game_edge_list:
        h = heads[e]
        t = eu[e] if h == ev[e] else ev[e]
        game_edges.append((t, h, e))
        if sub[t] < 0:
            sub[t] = 0
            participants.append(t)
        if sub[h] < 0:
            sub[h] = 0
            participants.append(h)
    participants.sort()
    for i, g in enumerate(participants):
        sub[g] = i
    num_participants = len(participants)

    has_token = bytearray(num_participants)
    for node in accepted_edge:
        if sub[node] >= 0:
            has_token[sub[node]] = 1
    game, payloads = game_from_arrays(
        num_participants,
        has_token,
        [load[g] for g in participants],
        [(sub[t], sub[h], e) for t, h, e in game_edges],
    )
    par_ptr, chi_ptr = game.par_ptr, game.chi_ptr
    game_degree = 0
    for i in range(num_participants):
        degree = par_ptr[i + 1] - par_ptr[i] + chi_ptr[i + 1] - chi_ptr[i]
        if degree > game_degree:
            game_degree = degree
    # The reference budget: three LOCAL rounds per game round of the
    # Theorem 4.1 bound computed from this instance's height/degree.
    max_rounds = 3 * (8 * (height + 1) * (game_degree + 1) ** 2 + 8)
    _, final_token, _, _, consumed, engine = proposal_game_kernel(
        game,
        max_rounds,
        tie_break=tie_break,
        rngs=_node_rngs(tie_break, seed, tuple(ids[g] for g in participants))
        if tie_break == "random"
        else None,
        count_messages=False,
    )

    for g in participants:
        sub[g] = -1

    if check_invariants:
        # Maximality (output rule 3) is the part of the solution
        # validation that guards Lemma 5.4; rules 1 and 2 hold by
        # construction of the game kernel.
        chi_ptr, chi_node, chi_edge = game.chi_ptr, game.chi_node, game.chi_edge
        for i in range(num_participants):
            if final_token[i] < 0:
                continue
            for s in range(chi_ptr[i], chi_ptr[i + 1]):
                if not consumed[chi_edge[s]] and final_token[chi_node[s]] < 0:
                    raise InvalidSolutionError(
                        f"not maximal: token at {ids[participants[i]]!r} can "
                        f"still move to {ids[participants[chi_node[s]]]!r}"
                    )

    consumed_edges = [payloads[ge] for ge in range(game.num_edges) if consumed[ge]]
    return consumed_edges, engine.rounds


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
    :func:`~repro.core.orientation.phases.run_stable_orientation`: every
    phase's propose/accept exchange runs as ascending edge scans, the
    per-phase token dropping game is built *directly* as a dense game
    (:func:`repro.core.token_dropping._kernels.game_from_arrays` — no dict
    :class:`~repro.core.token_dropping.game.TokenDroppingInstance` or
    ``to_network`` round-trip), and the game is solved by the compact
    proposal-game kernel.  Because dense node ids are ``repr``-sorted and
    edge indices follow the reference's canonical-key ``repr`` order, the
    reference tie-breaks ("propose to the canonical endpoint on a load
    tie", "accept the smallest-``repr`` edge", the game's ``min``/``max``/
    ``random`` policies) are all replayed exactly: orientations, per-phase
    statistics, and round counts match the dict path bit for bit.

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
    from repro.core.token_dropping.proposal import TIE_BREAK_POLICIES

    n = graph.num_nodes
    m = graph.num_edges
    eu = list(graph.edge_u)
    ev = list(graph.edge_v)
    ids = graph.node_ids
    indptr = graph.indptr
    slot_edge = graph.slot_edge

    delta = graph.max_degree()
    if max_phases is None:
        # Lemma 5.5: the explicit O(Δ) phase budget of the reference path.
        max_phases = 4 * (delta + 1) + 4
    if m and tie_break not in TIE_BREAK_POLICIES:
        # The reference raises when the first phase builds its factory; an
        # edgeless problem never runs a phase and never validates.
        raise ValueError(
            f"unknown tie-break policy {tie_break!r}; "
            f"expected one of {TIE_BREAK_POLICIES}"
        )

    heads = [-1] * m
    load = [0] * n
    per_phase: List = []
    phases = 0
    game_rounds = 0
    communication_rounds = 0
    oriented_count = 0
    # Scratch map from dense node id to per-phase game id (-1 = not in
    # this phase's game); allocated once and reset after every phase.
    sub = [-1] * n

    # Frontier state, maintained incrementally so a phase never rescans
    # all n nodes or all m edges (a node's badness contribution can only
    # change when one of its endpoint loads does):
    #
    # * ``pending`` — the unoriented edge ids, ascending (the reference
    #   scan order), shrunk by exactly the accepted edges each phase;
    # * ``cand`` — the oriented edges of badness exactly 1 (the next
    #   phase's game edges); ``over`` — badness > 1 with its value
    #   (empty in any valid run, Lemma 5.4);
    # * ``hist``/``cur_max`` — a load histogram (loads are bounded by Δ)
    #   so the per-phase game height is O(1) instead of ``max(load)``;
    # * ``touched``/``touched_nodes`` — the nodes whose load changed this
    #   phase; only their incident edges get their badness re-examined.
    pending = list(range(m))
    cand: set = set()
    over: Dict[int, int] = {}
    hist = [0] * (delta + 2)
    if n:
        hist[0] = n
    cur_max = 0
    touched = bytearray(n)

    while oriented_count < m:
        phases += 1
        if phases > max_phases:
            raise AlgorithmError(
                f"stable orientation exceeded the phase budget of {max_phases}; "
                "this contradicts Lemma 5.5 and indicates a bug"
            )

        with obs.span("orientation.phase", phase=phases) as psp:
            # Steps 1 + 2: every unoriented edge proposes to its lower-load
            # endpoint (canonical endpoint on ties) and every proposed-to
            # node accepts its smallest-repr edge — ``pending`` is kept
            # ascending, so the first proposal a node sees is the one the
            # reference's full ascending edge scan would accept.
            accepted_edge: Dict[int, int] = {}
            proposals = len(pending)
            for e in pending:
                u = eu[e]
                v = ev[e]
                target = v if load[v] < load[u] else u
                if target not in accepted_edge:
                    accepted_edge[target] = e

            # Step 3 input: the oriented edges of badness exactly 1 become
            # the phase's token dropping game edges (tail = child, head =
            # parent, Lemma 5.2), with tokens on the accepting nodes.
            # ``cand`` holds exactly those edges — maintained at the end of
            # the previous phase from the nodes whose load changed, not by
            # rescanning all m edges.  The game is restricted to nodes
            # incident to a game edge: every other node (tokenless, or a
            # token holder with no game neighbours) halts at round 0 with
            # no LEAVE fan-out in the reference execution, so dropping it
            # changes neither the surviving run nor its rounds.
            game_edge_list = sorted(cand)
            # Phase-start max load, from the histogram (O(1) instead of an
            # O(n) ``max(load)`` pass; loads are bounded by Δ).
            height = cur_max
            consumed_edges, td_comm_rounds = _solve_phase_game(
                eu,
                ev,
                ids,
                sub,
                load,
                heads,
                game_edge_list,
                accepted_edge,
                height,
                tie_break,
                seed,
                check_invariants,
            )

            # Step 4: flip every edge consumed by a pass (each game edge maps
            # back to its oriented edge through the payload table; flipping is
            # order-independent because every edge is consumed at most once).
            edges_flipped = 0
            touched_nodes: List[int] = []
            for e in consumed_edges:
                h = heads[e]
                t = eu[e] if h == ev[e] else ev[e]
                heads[e] = t
                lh = load[h]
                load[h] = lh - 1
                hist[lh] -= 1
                hist[lh - 1] += 1
                lt = load[t]
                load[t] = lt + 1
                hist[lt] -= 1
                hist[lt + 1] += 1
                if lt >= cur_max:
                    cur_max = lt + 1
                if not touched[h]:
                    touched[h] = 1
                    touched_nodes.append(h)
                if not touched[t]:
                    touched[t] = 1
                    touched_nodes.append(t)
                edges_flipped += 1

            # Step 5: orient the accepted (previously unoriented) edges.
            for node, e in accepted_edge.items():
                heads[e] = node
                ln = load[node]
                load[node] = ln + 1
                hist[ln] -= 1
                hist[ln + 1] += 1
                if ln >= cur_max:
                    cur_max = ln + 1
                if not touched[node]:
                    touched[node] = 1
                    touched_nodes.append(node)
            oriented_count += len(accepted_edge)
            if len(accepted_edge) < len(pending):
                pending = [e for e in pending if heads[e] < 0]
            else:
                pending = []
            while cur_max and not hist[cur_max]:
                cur_max -= 1

            # End-of-phase badness maintenance: an edge's badness can only
            # have changed if one of its endpoint loads did, so refreshing
            # the edges incident to the touched nodes (which include every
            # newly oriented edge's head) is exhaustive.  The reference's
            # full-scan ``max_badness`` is therefore 1 iff ``cand`` is
            # non-empty (badness > 1 lands in ``over``, which any valid
            # run keeps empty).
            if obs.enabled():
                obs.add("orientation.frontier.game_edges", len(game_edge_list))
                obs.add("orientation.frontier.touched_nodes", len(touched_nodes))
                obs.add(
                    "orientation.frontier.refreshed_slots",
                    sum(indptr[x + 1] - indptr[x] for x in touched_nodes),
                )
            for x in touched_nodes:
                touched[x] = 0
                for s in range(indptr[x], indptr[x + 1]):
                    e = slot_edge[s]
                    h = heads[e]
                    if h < 0:
                        continue
                    t = eu[e] if h == ev[e] else ev[e]
                    badness = load[h] - load[t]
                    if badness == 1:
                        cand.add(e)
                        if over:
                            over.pop(e, None)
                    else:
                        cand.discard(e)
                        if badness > 1:
                            over[e] = badness
                        elif over:
                            over.pop(e, None)

            max_badness = max(over.values()) if over else (1 if cand else 0)
            if check_invariants and max_badness > 1:
                raise AlgorithmError(
                    f"phase {phases} ended with max badness {max_badness} > 1; "
                    "this contradicts Lemma 5.4 and indicates a bug"
                )

            td_game_rounds = -(-td_comm_rounds // 3)  # ceil, as in reconstruct_solution
            game_rounds += td_game_rounds + PHASE_OVERHEAD_ROUNDS
            communication_rounds += td_comm_rounds + PHASE_OVERHEAD_ROUNDS
            phase_stats = PhaseStats(
                phase=phases,
                proposals=proposals,
                accepted=len(accepted_edge),
                tokens=len(accepted_edge),
                token_dropping_game_rounds=td_game_rounds,
                token_dropping_communication_rounds=td_comm_rounds,
                token_dropping_height=height,
                edges_flipped=edges_flipped,
                edges_oriented_total=oriented_count,
                max_badness_after=max_badness,
            )
            per_phase.append(phase_stats)
            psp.set(
                proposals=phase_stats.proposals,
                accepted=phase_stats.accepted,
                tokens=phase_stats.tokens,
                game_rounds=phase_stats.token_dropping_game_rounds,
                communication_rounds=(
                    phase_stats.token_dropping_communication_rounds
                ),
                height=phase_stats.token_dropping_height,
                edges_flipped=phase_stats.edges_flipped,
                oriented_total=phase_stats.edges_oriented_total,
                max_badness=phase_stats.max_badness_after,
            )

    if check_invariants:
        violations = []
        for e in range(m):
            h = heads[e]
            t = eu[e] if h == ev[e] else ev[e]
            if load[h] - load[t] > 1:
                violations.append(
                    f"edge {ids[t]!r} -> {ids[h]!r} is unhappy: load({ids[h]!r})="
                    f"{load[h]} > load({ids[t]!r})+1={load[t] + 1}"
                )
        if violations:
            raise AlgorithmError(
                "final orientation is not stable: " + "; ".join(violations)
            )

    return heads, load, phases, game_rounds, communication_rounds, per_phase


# ----------------------------------------------------------------------
# The synchronous repair baseline
# ----------------------------------------------------------------------
@_gc_paused
def repair_kernel(
    graph: CompactGraph,
    *,
    seed: int = 0,
    max_iterations: Optional[int] = None,
    initial_heads: Optional[Sequence[int]] = None,
) -> Tuple[List[int], List[int], "object"]:
    """Run the synchronous repair baseline on int arrays.

    The compact counterpart of :func:`~repro.core.orientation.repair.
    synchronous_repair_orientation`.  The reference's only randomness is
    one ``random.Random(seed)`` consumed first by the coin-per-edge
    initial orientation (edges in canonical-key ``repr`` order, which is
    edge-index order) and then by ``rng.shuffle`` over the repr-sorted
    unhappy list each iteration.  ``shuffle``'s stream consumption depends
    only on the list length, so shuffling the rank-sorted edge-index list
    yields the exact reference permutation — the per-iteration flip sets,
    statistics, and final orientation all match bit for bit.

    ``initial_heads`` is the dense head id per edge index (default: the
    seeded random complete orientation of the reference path).
    """
    from repro.core.orientation._unhappy import (
        UnhappyEdgeTracker,
        run_repair_loop,
    )
    from repro.core.orientation.repair import (
        ROUNDS_PER_REPAIR_ITERATION,
        RepairRunStats,
    )

    rng = random.Random(seed)
    n = graph.num_nodes
    m = graph.num_edges
    eu = list(graph.edge_u)
    ev = list(graph.edge_v)
    indptr = list(graph.indptr)
    slot_edge = list(graph.slot_edge)
    rank_to_v, rank_to_u = directed_ranks(graph)

    if initial_heads is None:
        heads = [ev[e] if rng.random() < 0.5 else eu[e] for e in range(m)]
    else:
        heads = list(initial_heads)
    tails = [eu[e] if heads[e] == ev[e] else ev[e] for e in range(m)]

    load = [0] * n
    for h in heads:
        load[h] += 1

    if max_iterations is None:
        max_iterations = (
            sum((indptr[i + 1] - indptr[i]) ** 2 for i in range(n)) + 1
        )

    # Unhappy edges tracked incrementally (a flip changes two loads, so
    # only edges incident to those nodes change state), keyed to the rank
    # of their current (tail, head) repr — the reference's sort order.
    tracker = UnhappyEdgeTracker(heads, tails, load, ev, rank_to_v, rank_to_u)
    tracker.refresh(range(m))

    stats = RepairRunStats(initial_unhappy=len(tracker))

    def refresh_incident(x: int) -> None:
        tracker.refresh_slots(slot_edge, indptr[x], indptr[x + 1])

    with obs.span(
        "orientation.repair", nodes=n, edges=m, initial_unhappy=len(tracker)
    ) as sp:
        run_repair_loop(
            tracker,
            num_nodes=n,
            refresh_incident=refresh_incident,
            rng=rng,
            stats=stats,
            max_iterations=max_iterations,
            rounds_per_iteration=ROUNDS_PER_REPAIR_ITERATION,
        )
        sp.set(
            iterations=stats.iterations,
            flips=stats.total_flips,
            communication_rounds=stats.communication_rounds,
        )

    return heads, load, stats


# ----------------------------------------------------------------------
# The k-bounded stable orientation algorithm (Sections 1.4 / 7.3)
# ----------------------------------------------------------------------
def _edge_customer_ranks(graph: CompactGraph):
    """Repr-rank tables of the edge-customer view, memoized on the graph.

    Edge customers are labelled ``("edge", u, v)`` with endpoints in
    repr-sorted order; dense interning is repr-sorted, so the label's
    endpoint order is (min, max) of the dense endpoints.  Returns
    ``(lo, hi, labels, cust_order, pair_rank)`` where ``cust_order`` is
    the ascending customer-``repr`` scan order and ``pair_rank`` ranks the
    ``repr`` of every ``(endpoint, label)`` tuple — the candidate
    universe of the hypergraph game's ``choose``.
    """
    cached = graph.derived.get("edge_customer_ranks")
    if cached is not None:
        return cached
    ids = graph.node_ids
    m = graph.num_edges
    lo = [0] * m
    hi = [0] * m
    labels = []
    for e in range(m):
        u, v = graph.edge_u[e], graph.edge_v[e]
        if u > v:
            u, v = v, u
        lo[e] = u
        hi[e] = v
        labels.append(("edge", ids[u], ids[v]))

    label_reprs = [repr(label) for label in labels]
    cust_order = sorted(range(m), key=label_reprs.__getitem__)

    pair_reprs: List[str] = []
    for e in range(m):
        pair_reprs.append(repr((ids[lo[e]], labels[e])))
        pair_reprs.append(repr((ids[hi[e]], labels[e])))
    order = sorted(range(2 * m), key=pair_reprs.__getitem__)
    pair_rank = [0] * (2 * m)
    for r, slot in enumerate(order):
        pair_rank[slot] = r

    cached = (lo, hi, labels, cust_order, pair_rank)
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
    run_bounded_stable_orientation`, which the reference path solves by
    translating every edge ``{u, v}`` into a degree-2 customer
    ``("edge", u, v)`` and running the Section 7 assignment phases with
    effective loads ``min(load, k)``.  This kernel runs that edge-customer
    specialisation directly: the per-phase propose/accept exchange scans
    edges in customer-``repr`` order, and the embedded rank-2 hypergraph
    proposal games (Theorem 7.1) run on flat arrays with the reference's
    ``repr`` tie-breaks replayed through two precomputed rank tables —
    customer-label ranks for the accept step and ``(vertex, customer)``
    pair ranks for the game's ``choose``.  Assignments, per-phase
    statistics, and game-round counts match the dict path bit for bit.

    Returns
    -------
    (choice, loads, phases, game_rounds, per_phase)
        Dense assigned-server (head) per edge, load per dense node, and
        the run counters with the per-phase :class:`~repro.core.
        assignment.algorithm.AssignmentPhaseStats` rows.
    """
    from repro.core.assignment._kernels import hypergraph_phase_game_kernel
    from repro.core.assignment.algorithm import (
        PHASE_OVERHEAD_ROUNDS,
        AssignmentPhaseStats,
    )

    n = graph.num_nodes
    m = graph.num_edges
    ids = graph.node_ids
    indptr = list(graph.indptr)
    slot_edge = list(graph.slot_edge)

    lo, hi, labels, cust_order, pair_rank = _edge_customer_ranks(graph)

    load = [0] * n
    choice = [-1] * m
    assigned = 0
    phases = 0
    game_rounds = 0
    per_phase: List = []
    # Unassigned customers in customer-repr order; filtering preserves the
    # relative order, so later phases scan only what is left.
    pending = cust_order

    # Lemma 7.2: the explicit O(C·S) phase budget (C = 2 for edges).
    max_customer_degree = 2 if m else 0
    max_phases = 4 * (max_customer_degree + 1) * (graph.max_degree() + 1) + 4

    # Frontier state, mirroring ``stable_orientation_kernel``: effective
    # levels min(load, k) maintained incrementally (they change only when
    # a load crosses k), a level histogram for O(1) phase height, the
    # badness-1 candidate set ``cand`` feeding each phase's game, badness
    # > 1 overflow in ``over`` (empty in any valid run), and reusable
    # scratch cleared frontier-sized — no per-phase O(n)/O(m) allocation
    # or scan.
    level = [0] * n
    hist = [0] * (k + 1)
    hist[0] = n
    cur_max = 0
    cand: Set[int] = set()
    over: Dict[int, int] = {}
    live = bytearray(m)
    incidence = [0] * n
    occupied = bytearray(n)
    touched = bytearray(n)

    while assigned < m:
        phases += 1
        if phases > max_phases:
            raise AlgorithmError(
                f"stable assignment exceeded the phase budget of {max_phases}; "
                "this contradicts Lemma 7.2 and indicates a bug"
            )

        # Step 1: every unassigned customer proposes to its least
        # effectively loaded endpoint (smaller repr on ties).  Step 2:
        # every proposed-to server accepts its smallest-repr customer,
        # which is the first one to reach it in customer-repr order.
        accepted: Dict[int, int] = {}
        if phases > 1:
            pending = [e for e in pending if choice[e] < 0]
        unassigned = len(pending)
        for e in pending:
            a, b = lo[e], hi[e]
            target = a if level[a] <= level[b] else b
            if target not in accepted:
                accepted[target] = e

        # Step 3: the per-phase hypergraph token dropping instance —
        # levels are effective loads, hyperedges the assigned customers of
        # badness exactly 1 (head = assigned server), tokens on accepting
        # servers.  ``cand`` holds exactly the badness-1 customers,
        # maintained at the end of the previous phase from the customers
        # whose endpoint levels or assignment changed — not by rescanning
        # all m edges.
        game_edge_list = sorted(cand)
        game_hyperedges = len(game_edge_list)
        game_vertex_set: List[int] = []
        for e in game_edge_list:
            live[e] = 1
            if not incidence[lo[e]]:
                game_vertex_set.append(lo[e])
            if not incidence[hi[e]]:
                game_vertex_set.append(hi[e])
            incidence[lo[e]] += 1
            incidence[hi[e]] += 1

        for server in accepted:
            occupied[server] = 1

        # Phase height from the level histogram (O(1), not max(level)).
        height = cur_max
        max_vertex_degree = 0
        for v in game_vertex_set:
            if incidence[v] > max_vertex_degree:
                max_vertex_degree = incidence[v]
        max_game_rounds = 8 * (height + 1) * (max_vertex_degree + 1) ** 2 + 8

        # The Theorem 7.1 proposal strategy on the rank-2 game, run by the
        # shared assignment-phase engine.  Only endpoints of live
        # hyperedges can ever have options, so the per-round scan skips
        # every other vertex (the reference scans them too, but they make
        # no choices and consume no randomness).
        game_vertex_set.sort()
        rounds, passes = hypergraph_phase_game_kernel(
            indptr=indptr,
            slot_edge=slot_edge,
            choice=choice,
            live=live,
            occupied=occupied,
            game_vertices=game_vertex_set,
            lo=lo,
            hi=hi,
            pair_rank=pair_rank,
            tie_break=tie_break,
            rng=random.Random(seed),
            max_game_rounds=max_game_rounds,
        )

        if check_invariants:
            # Maximality of the game outcome (the only validation rule not
            # guaranteed by construction): no occupied head may still have
            # a live hyperedge towards an unoccupied child.  The phase's
            # game edges are exactly ``game_edge_list``; consumed ones had
            # their ``live`` bit cleared by the engine.
            for e in game_edge_list:
                if not live[e]:
                    continue
                h = choice[e]
                if h < 0 or not occupied[h]:
                    continue
                other = lo[e] if h == hi[e] else hi[e]
                if not occupied[other]:
                    raise AlgorithmError(
                        "invalid hypergraph token dropping solution: "
                        f"not maximal at customer {labels[e]!r}"
                    )

        touched_nodes: List[int] = []

        def relevel(x: int) -> None:
            nonlocal cur_max
            lx = load[x]
            lv = lx if lx < k else k
            old = level[x]
            if lv == old:
                return
            hist[old] -= 1
            hist[lv] += 1
            level[x] = lv
            if lv > cur_max:
                cur_max = lv
            if not touched[x]:
                touched[x] = 1
                touched_nodes.append(x)

        # Step 4: move assignments along the passes (each consumed
        # hyperedge moved its customer one step to the pass target).
        for e, child in passes:
            h = choice[e]
            load[h] -= 1
            relevel(h)
            load[child] += 1
            relevel(child)
            choice[e] = child
        reassignments = len(passes)

        # Step 5: assign the accepted customers to their accepting servers.
        for server, e in accepted.items():
            choice[e] = server
            load[server] += 1
            relevel(server)
        assigned += len(accepted)
        while cur_max and not hist[cur_max]:
            cur_max -= 1

        # Reset the phase scratch frontier-sized: the only ``occupied``
        # bits ever set belong to accepting servers and pass targets.
        for e in game_edge_list:
            live[e] = 0
        for v in game_vertex_set:
            incidence[v] = 0
        for server in accepted:
            occupied[server] = 0
        for _e, child in passes:
            occupied[child] = 0

        if obs.enabled():
            obs.add("orientation.frontier.game_edges", game_hyperedges)
            obs.add("orientation.frontier.touched_nodes", len(touched_nodes))
            obs.add(
                "orientation.frontier.refreshed_slots",
                sum(indptr[x + 1] - indptr[x] for x in touched_nodes),
            )

        # End-of-phase badness maintenance: a customer's badness can only
        # change when an endpoint's effective level changed or its
        # assignment moved, so refreshing the touched nodes' incident
        # customers plus the passed and newly accepted ones is exhaustive.
        def refresh(e: int) -> None:
            h = choice[e]
            if h < 0:
                return
            other = lo[e] if h == hi[e] else hi[e]
            badness = level[h] - level[other]
            if badness == 1:
                cand.add(e)
                if over:
                    over.pop(e, None)
            else:
                cand.discard(e)
                if badness > 1:
                    over[e] = badness
                elif over:
                    over.pop(e, None)

        for x in touched_nodes:
            touched[x] = 0
            for s in range(indptr[x], indptr[x + 1]):
                refresh(slot_edge[s])
        for e, _child in passes:
            refresh(e)
        for e in accepted.values():
            refresh(e)

        max_badness = max(over.values()) if over else (1 if cand else 0)
        if check_invariants and max_badness > 1:
            raise AlgorithmError(
                f"phase {phases} ended with max badness {max_badness} > 1; "
                "this contradicts the Section 7.2 invariant and indicates a bug"
            )

        td_rounds = rounds
        game_rounds += td_rounds + PHASE_OVERHEAD_ROUNDS
        per_phase.append(
            AssignmentPhaseStats(
                phase=phases,
                proposals=unassigned,
                accepted=len(accepted),
                tokens=len(accepted),
                game_hyperedges=game_hyperedges,
                token_dropping_game_rounds=td_rounds,
                token_dropping_height=height,
                reassignments=reassignments,
                customers_assigned_total=assigned,
                max_badness_after=max_badness,
            )
        )

    if check_invariants:
        violations = []
        level = [x if x < k else k for x in load]
        for e in range(m):
            h = choice[e]
            other = lo[e] if h == hi[e] else hi[e]
            if level[h] - level[other] > 1:
                violations.append(
                    f"customer {labels[e]!r} on server {ids[h]!r} (load "
                    f"{load[h]}) has a strictly better server available"
                )
        if violations:
            raise AlgorithmError(
                "final assignment is not stable: " + "; ".join(violations)
            )

    return choice, load, phases, game_rounds, per_phase
