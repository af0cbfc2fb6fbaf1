"""Int-array fast-path kernels for assignment algorithms.

* :func:`hypergraph_phase_game_kernel` — the rank-2 hypergraph proposal
  game (Theorem 7.1) of each phase of the k-bounded orientation kernel,
  on NumPy arrays, replaying the reference's ``repr`` tie-breaks
  through the edge-customer pair ranks;
* :func:`greedy_kernel` and :func:`best_response_kernel` — compact
  counterparts of :func:`~repro.core.assignment.semi_matching.
  greedy_assignment_reference` and :func:`~repro.core.assignment.
  best_response.best_response_dynamics_reference`, operating on a
  :class:`~repro.graphs.compact.CompactBipartite`.

Because both sides of a compact bipartite graph are interned in
``repr``-sorted order, every reference tie-break of the last two
("smallest ``repr`` first") becomes "smallest dense id first", so all
three kernels reproduce the reference implementations' choices exactly —
asserted by the cross-validation suite on hundreds of seeded instances.
The hot loops touch only flat integer arrays: no hashing, no frozenset
iteration, no ``repr`` calls.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.token_dropping.hypergraph_game import (
    HypergraphRoundLimitExceeded,
)
from repro.graphs.compact import CompactBipartite

if TYPE_CHECKING:
    import numpy as np


def hypergraph_phase_game_kernel(
    *,
    indptr: np.ndarray,
    slot_edge: np.ndarray,
    choice: np.ndarray,
    live: np.ndarray,
    occupied: np.ndarray,
    game_vertices: np.ndarray,
    lo: np.ndarray,
    pair_rank: np.ndarray,
    tie_break: str,
    rng: random.Random,
    max_game_rounds: int,
) -> Tuple[int, np.ndarray, np.ndarray]:
    """One rank-2 hypergraph proposal game (Theorem 7.1) on NumPy arrays.

    The game of each phase of :func:`~repro.core.orientation._kernels.
    bounded_orientation_kernel`, its only caller: unoccupied vertices
    propose to an occupied head over a live hyperedge, every proposed-to
    head passes its token to one proposer, with the reference's ``repr``
    tie-breaks replayed through the precomputed ``(vertex, customer)``
    pair ranks (``pair_rank[2e]`` for endpoint ``lo[e]``,
    ``pair_rank[2e + 1]`` for the other).

    The caller owns the phase state: ``live[e]`` (bool) flags the phase's
    game hyperedges (cleared here as they are consumed), ``occupied``
    (bool) flags the token holders (mutated in place by every pass),
    ``choice[e]`` is the head of hyperedge ``e`` at the start of the
    game, and ``game_vertices`` is the ascending set of vertices incident
    to a live hyperedge — the only vertices scanned, so each round costs
    the frontier's CSR slots, never O(n).  The per-round scan work (the
    degrees of the unoccupied game vertices) is exported as the
    ``orientation.frontier.scanned_slots`` obs counter, with
    ``orientation.frontier.game_vertices`` for the instance size.

    The options — (proposer, hyperedge, head) per CSR slot of a game
    vertex on a live hyperedge it does not head — are gathered once and
    sorted by proposer, then head rank.  A round is one mask over them,
    ``live[edge] & occupied[head] & ~occupied[proposer]``: each proposer
    takes the first of its options for ``min``, the last for ``max``;
    each head then takes, among its requests ordered by proposer rank,
    the first or the last, with heads in the order of their first
    proposal.  For ``random`` the draws come from ``rng`` in the
    reference order: one ``randrange(count)`` per proposer, ascending,
    then one per head in first-proposal order.

    Returns ``(rounds, move_edges, move_heads)``: the passes ``(hyperedge,
    new_head)`` in consumption order, as ``int64`` arrays.
    """
    import numpy as np

    counting = obs.enabled()
    scanned_slots = 0
    starts = indptr[game_vertices]
    degree = indptr[game_vertices + 1] - starts
    total = int(degree.sum())
    slots = np.repeat(starts - (np.cumsum(degree) - degree), degree)
    slots += np.arange(total)
    owner = np.repeat(game_vertices, degree)
    edge = slot_edge[slots]
    head = choice[edge]
    keep = live[edge] & (head != owner)
    owner = owner[keep]
    edge = edge[keep]
    head = head[keep]
    head_is_hi = head != lo[edge]
    head_rank = pair_rank[2 * edge + head_is_hi]
    owner_rank = pair_rank[2 * edge + ~head_is_hi]
    by_owner = np.lexsort((head_rank, owner))
    owner = owner[by_owner]
    edge = edge[by_owner]
    head = head[by_owner]
    owner_rank = owner_rank[by_owner]

    rounds = 0
    move_edges = [np.zeros(0, dtype=np.int64)]
    move_heads = [np.zeros(0, dtype=np.int64)]
    while True:
        if counting:
            scanned_slots += int(degree[~occupied[game_vertices]].sum())
        options = np.flatnonzero(live[edge] & occupied[head] & ~occupied[owner])
        if not len(options):
            break
        # Each proposer picks one of its options, already in head-rank order.
        _, start, size = np.unique(
            owner[options], return_index=True, return_counts=True
        )
        picks = options[_pick(start, size, tie_break, rng)]
        rounds += 1
        if rounds > max_game_rounds:
            raise HypergraphRoundLimitExceeded(
                f"hypergraph proposal engine exceeded {max_game_rounds} "
                "game rounds"
            )

        child = owner[picks]
        parent = head[picks]
        # Each head picks one request by proposer rank; heads take turns in
        # the order of their first proposal, i.e. of their smallest request
        # index, as requests are in proposer order.
        by_parent = np.lexsort((owner_rank[picks], parent))
        _, start, size = np.unique(
            parent[by_parent], return_index=True, return_counts=True
        )
        turn = np.argsort(np.minimum.reduceat(by_parent, start))
        won = by_parent[_pick(start[turn], size[turn], tie_break, rng)]

        won_edges = edge[picks[won]]
        won_children = child[won]
        occupied[parent[won]] = False
        occupied[won_children] = True
        live[won_edges] = False
        move_edges.append(won_edges)
        move_heads.append(won_children)

    if counting:
        obs.add("orientation.frontier.game_vertices", len(game_vertices))
        obs.add("orientation.frontier.scanned_slots", scanned_slots)
    return rounds, np.concatenate(move_edges), np.concatenate(move_heads)


def _pick(
    start: np.ndarray, size: np.ndarray, tie_break: str, rng: random.Random
) -> np.ndarray:
    """The chosen index of each group ``[start, start + size)``, in rank order.

    ``random`` draws one ``rng.randrange(size)`` per group, in the given
    group order.
    """
    import numpy as np

    if tie_break == "min":
        return start
    if tie_break == "max":
        return start + size - 1
    draws = [rng.randrange(c) for c in size.tolist()]  # "random"
    return start + np.array(draws, dtype=np.int64)


def greedy_kernel(
    graph: CompactBipartite, *, order: str = "sorted", seed: int = 0
) -> Tuple[List[int], List[int]]:
    """Greedy least-loaded assignment on int arrays.

    Returns ``(choice, load)``: the dense server id per dense customer id
    and the resulting per-server loads.  Matches the reference
    ``greedy_assignment`` exactly: customers in dense (= ``repr``) order,
    or the same seeded shuffle; each picks the smallest-id server among
    the least-loaded adjacent ones.
    """
    num_customers = graph.num_customers
    customers = list(range(num_customers))
    if order == "random":
        random.Random(seed).shuffle(customers)
    elif order != "sorted":
        raise ValueError(f"unknown order {order!r}; expected 'sorted' or 'random'")

    indptr = graph.cust_indptr
    indices = graph.cust_indices
    choice = [-1] * num_customers
    load = [0] * graph.num_servers
    for c in customers:
        best = -1
        best_load = 0
        for slot in range(indptr[c], indptr[c + 1]):
            s = indices[slot]
            l = load[s]
            if best < 0 or l < best_load:
                best = s
                best_load = l
        choice[c] = best
        load[best] = best_load + 1
    return choice, load


def best_response_kernel(
    graph: CompactBipartite,
    *,
    initial_choice: Sequence[int],
    policy: str = "first",
    seed: int = 0,
    max_moves: Optional[int] = None,
) -> Tuple[List[int], List[int], int, int, int]:
    """Best-response dynamics on int arrays until no customer wants to move.

    Parameters mirror :func:`~repro.core.assignment.best_response.
    best_response_dynamics`; ``initial_choice`` is a complete dense
    assignment (e.g. from :func:`greedy_kernel`).

    Returns ``(choice, load, moves, initial_potential, final_potential)``.
    """
    rng = random.Random(seed)
    num_customers = graph.num_customers
    indptr = list(graph.cust_indptr)
    indices = list(graph.cust_indices)
    sptr = list(graph.serv_indptr)
    sidx = list(graph.serv_indices)

    choice = list(initial_choice)
    load = [0] * graph.num_servers
    for s in choice:
        load[s] += 1
    potential = sum(l * l for l in load)
    initial_potential = potential
    if max_moves is None:
        max_moves = potential // 2 + 1

    def is_unhappy(c: int) -> bool:
        own = choice[c]
        own_load = load[own]
        if own_load < 2:
            return False  # no other server can be 2 lighter
        for slot in range(indptr[c], indptr[c + 1]):
            s = indices[slot]
            if s != own and load[s] < own_load - 1:
                return True
        return False

    unhappy = {c for c in range(num_customers) if is_unhappy(c)}

    moves = 0
    while unhappy:
        if moves >= max_moves:
            raise RuntimeError(
                f"best-response dynamics exceeded {max_moves} moves; "
                "the potential argument guarantees this cannot happen"
            )
        if policy == "first":
            c = min(unhappy)
        else:  # random
            ordered = sorted(unhappy)
            c = ordered[rng.randrange(len(ordered))]

        old = choice[c]
        best = -1
        best_load = 0
        for slot in range(indptr[c], indptr[c + 1]):
            s = indices[slot]
            l = load[s]
            if best < 0 or l < best_load:
                best = s
                best_load = l
        old_load = load[old]
        choice[c] = best
        load[old] = old_load - 1
        load[best] = best_load + 1
        potential += 2 * (best_load - old_load) + 2
        moves += 1

        for x in (old, best):
            for slot in range(sptr[x], sptr[x + 1]):
                other = sidx[slot]
                if is_unhappy(other):
                    unhappy.add(other)
                else:
                    unhappy.discard(other)

    return choice, load, moves, initial_potential, potential
