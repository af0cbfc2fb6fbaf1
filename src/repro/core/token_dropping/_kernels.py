"""Int-array fast-path kernels for the token dropping game.

These are the compact counterparts of the three token dropping solvers:

* :func:`greedy_kernel` — the centralized sequential baseline
  (:func:`~repro.core.token_dropping.greedy.greedy_token_dropping`);
* :func:`proposal_kernel` — the distributed proposal algorithm
  (Theorem 4.1, :mod:`repro.core.token_dropping.proposal`);
* :func:`three_level_kernel` — the O(Δ) height-3 algorithm
  (Theorem 4.7, :mod:`repro.core.token_dropping.three_level`).

Each kernel re-represents its input once — dense node ids in
``repr``-sorted order, parent/child adjacency as flat CSR lists sharing
one edge-id space — and then simulates the *same execution* the reference
path performs, touching only integer arrays in the hot loop: token
positions, per-edge consumed flags, incremental parent/child counts, and
per-phase request/grant buffers instead of per-message dict envelopes.

Exactness contract
------------------
The kernels reproduce the reference executions bit-for-bit: the same
final token configuration, the same set of used edges, the same pass
histories, the same round counts, and (for the distributed kernels) the
same :class:`~repro.local_model.metrics.ExecutionMetrics` including
message counts and per-node halt rounds.  This works because

* interning is ``repr``-sorted, so the reference tie-break rule
  ("smallest ``repr`` first", see ``_choose`` in the proposal module)
  becomes "smallest dense id first" — candidate lists built by ascending
  scans are already in reference order;
* the ``random`` tie-break seeds one :class:`random.Random` per node from
  ``f"{seed}:{node_id!r}"`` exactly like the reference node classes, and
  each node's generator is consumed in the same per-node event order;
* message counting replays the scheduler's delivery rule (messages to
  nodes that halted in or before the sending round are dropped), and the
  termination checks run against the same pre-``LEAVE`` neighbour counts
  the reference nodes observe.

The cross-validation suite asserts all of this on hundreds of seeded
instances (``tests/integration/test_compact_cross_validation.py``).

The distributed kernels run behind the existing
:class:`~repro.local_model.runner.Runner` API: the algorithm factories
register them via ``AlgorithmFactory(..., compact_kernel=...)`` and
:mod:`repro.dispatch` decides per execution which path runs.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.token_dropping.game import (
    LOCAL_HAS_TOKEN,
    LOCAL_LEVEL,
    LOCAL_PARENTS,
    TokenDroppingInstance,
)
from repro.core.token_dropping.traversal import TokenDroppingSolution, Traversal
from repro.graphs.compact import _csr, intern_nodes
from repro.local_model.compact import CompactEngine, CompactNetwork
from repro.local_model.metrics import ExecutionMetrics


class _DenseGame:
    """Directed layered adjacency in flat parallel lists.

    Parent and child CSR structures share one edge-id space: directed
    edge ``e`` appears once in some node's parent list and once in the
    parent's child list, so a single ``consumed`` byte per edge serves
    both endpoints.  Lists are ascending per node (dense ids are interned
    in ``repr`` order), which is exactly the reference tie-break order.
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "has_token",
        "level",
        "par_ptr",
        "par_node",
        "par_edge",
        "chi_ptr",
        "chi_node",
        "chi_edge",
    )

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.num_edges = 0
        self.has_token = bytearray(num_nodes)
        self.level = [0] * num_nodes
        self.par_ptr = [0] * (num_nodes + 1)
        self.par_node: List[int] = []
        self.par_edge: List[int] = []
        self.chi_ptr = [0] * (num_nodes + 1)
        self.chi_node: List[int] = []
        self.chi_edge: List[int] = []

    @classmethod
    def of(cls, net: CompactNetwork) -> "_DenseGame":
        """The dense game of ``net``, memoized on the compact network.

        The dense adjacency, initial token flags, and levels are all
        derived from immutable inputs; kernels copy the mutable pieces
        (token flags) before simulating, so the memo stays pristine.
        """
        cached = net.derived.get("token_game")
        if cached is None:
            cached = cls.from_compact_network(net)
            net.derived["token_game"] = cached
        return cached

    @classmethod
    def from_compact_network(cls, net: CompactNetwork) -> "_DenseGame":
        """Read the token-dropping local inputs of every node (one pass)."""
        index_of = net.index_of
        inputs = [local or {} for local in net.local_inputs]
        game, _ = game_from_arrays(
            net.num_nodes,
            [local.get(LOCAL_HAS_TOKEN) for local in inputs],
            [int(local.get(LOCAL_LEVEL) or 0) for local in inputs],
            [
                (i, index_of[x], 0)
                for i, local in enumerate(inputs)
                for x in local.get(LOCAL_PARENTS, ())
            ],
        )
        return game

    @classmethod
    def from_instance(
        cls, instance: TokenDroppingInstance
    ) -> Tuple["_DenseGame", Tuple, Dict]:
        """Intern a :class:`TokenDroppingInstance` directly (one pass)."""
        graph = instance.graph
        node_ids, index_of = intern_nodes(graph.levels)
        game, _ = game_from_arrays(
            len(node_ids),
            [node in instance.tokens for node in node_ids],
            [graph.levels[node] for node in node_ids],
            [
                (i, index_of[x], 0)
                for i, node in enumerate(node_ids)
                for x in graph.parents(node)
            ],
        )
        return game, node_ids, index_of


def game_from_arrays(
    num_nodes: int,
    has_token,
    levels,
    edges,
) -> Tuple[_DenseGame, List[int]]:
    """Build a dense game directly from int arrays (no dict instance).

    The builder of every in-memory game: the compact orientation phase
    driver and both :class:`_DenseGame` constructors.  Callers that
    already hold dense node ids never pay for a dict
    :class:`TokenDroppingInstance`/``to_network`` round-trip.

    Parameters
    ----------
    num_nodes:
        Number of dense nodes; all arrays are indexed ``0 .. num_nodes-1``.
    has_token / levels:
        Per-node token flag and level (the caller's loads).
    edges:
        List of ``(child, parent, payload)`` triples (``payload`` is an
        arbitrary caller-side edge index).  Order is irrelevant: the CSR
        lists are counting-sorted into the ascending per-node order the
        reference tie-breaks require (dense interning is ``repr``-sorted,
        so ascending dense order is reference order).

    Returns
    -------
    (game, payloads)
        The dense game plus ``payloads[game_edge]`` echoing the caller's
        payload of each directed game edge.
    """
    game = _DenseGame(num_nodes)
    for i in range(num_nodes):
        if has_token[i]:
            game.has_token[i] = 1
        level = levels[i]
        if level:
            game.level[i] = level

    num_edges = len(edges)
    game.num_edges = num_edges
    # Game edge ids follow the (child, parent)-sorted order, which makes
    # the parent CSR a straight copy and keeps both adjacency lists
    # ascending per node.
    edges = sorted(edges)
    par_ptr = game.par_ptr
    chi_ptr = game.chi_ptr
    for c, p, _ in edges:
        par_ptr[c + 1] += 1
        chi_ptr[p + 1] += 1
    for i in range(num_nodes):
        par_ptr[i + 1] += par_ptr[i]
        chi_ptr[i + 1] += chi_ptr[i]

    game.par_node = [0] * num_edges
    game.par_edge = list(range(num_edges))
    game.chi_node = [0] * num_edges
    game.chi_edge = [0] * num_edges
    payloads = [0] * num_edges
    par_node = game.par_node
    chi_node, chi_edge = game.chi_node, game.chi_edge
    cursor = chi_ptr[:num_nodes]
    for ge, (c, p, payload) in enumerate(edges):
        par_node[ge] = p
        payloads[ge] = payload
        slot = cursor[p]
        chi_node[slot] = c
        chi_edge[slot] = ge
        cursor[p] = slot + 1
    return game, payloads


def game_from_edge_stream(
    num_nodes: int,
    edges: Iterable[Tuple[int, int]],
    *,
    has_token=None,
    levels=None,
) -> Tuple[_DenseGame, array]:
    """Build a dense game from a streamed ``(child, parent)`` iterable.

    The million-node counterpart of :func:`game_from_arrays`: the stream
    is consumed once into two flat ``array('q')`` buffers and each CSR
    direction is counting-sorted by :func:`repro.graphs.compact._csr`
    into the same ascending ``(child, parent)`` game-edge order — the
    resulting CSR structures are element-for-element equal to
    what :func:`game_from_arrays` produces on the materialised edge list
    (the cross-validation tests assert this), but no per-edge tuples or
    Python-list sort keys ever exist.  All adjacency arrays come out as
    ``array('q')`` (8 bytes per entry) rather than int-object lists,
    which is what makes the 10^6–10^7 tiers fit in memory.

    ``has_token`` / ``levels`` are optional dense-indexed per-node
    inputs; callers that must draw tokens *after* consuming a shared-RNG
    edge stream (see ``random_token_dropping(compact=True)``) leave them
    ``None`` and fill ``game.has_token`` / ``game.level`` in place.

    Returns ``(game, payloads)`` where ``payloads[game_edge]`` is the
    stream position of that edge, mirroring :func:`game_from_arrays`'s
    payload echo.  Duplicate edges are not detected (the generating
    streams are duplicate-free by construction).
    """
    game = _DenseGame(num_nodes)
    if has_token is not None:
        for i in range(num_nodes):
            if has_token[i]:
                game.has_token[i] = 1
    if levels is not None:
        for i in range(num_nodes):
            level = levels[i]
            if level:
                game.level[i] = level

    child_of = array("q")
    parent_of = array("q")
    for c, p in edges:
        child_of.append(c)
        parent_of.append(p)
    m = len(child_of)
    game.num_edges = m

    # Game edge ids are the parent-CSR slots: ascending (child, parent),
    # the order game_from_arrays gets from sorting triples.
    game.par_ptr, game.par_node, payloads = _csr(
        num_nodes, num_nodes, child_of, parent_of
    )
    game.par_edge = array("q", range(m))
    del parent_of
    # The child CSR sorts the game edges by (parent, child), so its
    # ``source`` is each child slot's game edge id.
    child_of_slot = array("q", map(child_of.__getitem__, payloads))
    del child_of
    game.chi_ptr, game.chi_node, game.chi_edge = _csr(
        num_nodes, num_nodes, game.par_node, child_of_slot
    )
    return game, payloads


def _node_rngs(
    tie_break: str, seed: int, node_ids: Tuple
) -> Optional[List[random.Random]]:
    """Per-node generators matching the reference node constructors."""
    if tie_break != "random":
        return None
    return [random.Random(f"{seed}:{node_id!r}") for node_id in node_ids]


def _pick(candidates: List, tie_break: str, rng: Optional[random.Random]):
    """Reference ``_choose`` over an already-ascending candidate list."""
    if tie_break == "min":
        return candidates[0]
    if tie_break == "max":
        return candidates[-1]
    return candidates[rng.randrange(len(candidates))]


def _leave_messages(i, game, alive, dying_now, consumed, n_par, n_chi) -> int:
    """LEAVE fan-out of one dying node (shared by both round kernels).

    Counts deliveries to surviving neighbours (receivers halting in the
    same round drop the message, per the scheduler rule) and removes the
    dying node from each survivor's parent/child count.
    """
    par_ptr, par_node, par_edge = game.par_ptr, game.par_node, game.par_edge
    chi_ptr, chi_node, chi_edge = game.chi_ptr, game.chi_node, game.chi_edge
    messages = 0
    for s in range(par_ptr[i], par_ptr[i + 1]):
        if consumed[par_edge[s]]:
            continue
        p = par_node[s]
        if alive[p] and not dying_now[p]:
            messages += 1
            n_chi[p] -= 1
    for s in range(chi_ptr[i], chi_ptr[i + 1]):
        if consumed[chi_edge[s]]:
            continue
        c = chi_node[s]
        if alive[c] and not dying_now[c]:
            messages += 1
            n_par[c] -= 1
    return messages


def _halt_outputs(ids, initially, has_token, token, received, passed) -> List[dict]:
    """Per-node halt outputs in original-id space (both round kernels)."""
    return [
        {
            "initially_occupied": bool(initially[i]),
            "finally_occupied": bool(has_token[i]),
            "final_token": ids[token[i]] if has_token[i] else None,
            "received": tuple((ids[t], ids[s]) for t, s in received[i]),
            "passed": tuple((ids[t], ids[c]) for t, c in passed[i]),
        }
        for i in range(len(ids))
    ]


# ----------------------------------------------------------------------
# The distributed proposal algorithm (Theorem 4.1)
# ----------------------------------------------------------------------
def proposal_game_kernel(
    game: _DenseGame,
    max_rounds: int,
    *,
    tie_break: str = "min",
    rngs: Optional[List[random.Random]] = None,
    count_messages: bool = True,
) -> Tuple[bytearray, List[int], List, List, bytearray, CompactEngine]:
    """Run the proposal algorithm's execution loop on a dense game.

    The shared core behind :func:`proposal_kernel` (which wraps a
    :class:`CompactNetwork`) and the compact orientation phase driver
    (which builds per-phase games via :func:`game_from_arrays`).  Returns
    the dense end state ``(has_token, token, received, passed, consumed,
    engine)``: ``consumed[game_edge]`` marks exactly the edges used by
    passes, and ``engine`` carries the reference-equal round/message/halt
    bookkeeping.

    ``count_messages=False`` skips the LEAVE/announce delivery accounting
    (``engine.messages`` is then meaningless) while keeping the
    termination-driving counter decrements — rounds, halts, passes, and
    consumed edges are unchanged.  Callers that only need the game
    outcome and round count (the orientation phase driver) use it to
    avoid the per-death delivery checks.
    """
    n = game.num_nodes
    engine = CompactEngine(n, max_rounds)
    alive = engine.alive
    par_ptr, par_node, par_edge = game.par_ptr, game.par_node, game.par_edge
    chi_ptr, chi_node, chi_edge = game.chi_ptr, game.chi_node, game.chi_edge

    has_token = bytearray(game.has_token)
    token = [i if has_token[i] else -1 for i in range(n)]
    n_par = [par_ptr[i + 1] - par_ptr[i] for i in range(n)]
    n_chi = [chi_ptr[i + 1] - chi_ptr[i] for i in range(n)]
    consumed = bytearray(game.num_edges)
    received: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    passed: List[List[Tuple[int, int]]] = [[] for _ in range(n)]

    active = list(range(n))
    dying_now = bytearray(n)
    # In-flight grants (child, parent, token), applied at the next
    # announce round exactly when the reference node processes its inbox.
    pending_grants: List[Tuple[int, int, int]] = []

    def announce(round_number: int) -> None:
        nonlocal active
        for c, p, tok in pending_grants:
            has_token[c] = 1
            token[c] = tok
            received[c].append((tok, p))
            n_par[c] -= 1
        pending_grants.clear()
        # Termination checks run against pre-LEAVE state: a death in this
        # round only becomes visible to neighbours at the next round.
        dying = []
        for i in active:
            if (n_chi[i] == 0) if has_token[i] else (n_par[i] == 0):
                dying.append(i)
                dying_now[i] = 1
        if count_messages:
            messages = 0
            for i in dying:
                messages += _leave_messages(
                    i, game, alive, dying_now, consumed, n_par, n_chi
                )
            # A surviving token-holder's announcement is delivered over
            # every unconsumed edge to a child that has not left — which,
            # once this round's LEAVE decrements are in, is exactly
            # n_chi[i]: consumed edges and departed children are already
            # subtracted, and same-round deaths drop the message per the
            # scheduler rule.
            for i in active:
                if has_token[i] and not dying_now[i]:
                    messages += n_chi[i]
            engine.messages += messages
        else:
            # Quiet LEAVE: only the termination-driving decrements.  Dead
            # receivers' counters are never read again, so the survivor
            # checks of the counting path are unnecessary here.
            for i in dying:
                for s in range(par_ptr[i], par_ptr[i + 1]):
                    if not consumed[par_edge[s]]:
                        n_chi[par_node[s]] -= 1
                for s in range(chi_ptr[i], chi_ptr[i + 1]):
                    if not consumed[chi_edge[s]]:
                        n_par[chi_node[s]] -= 1
        for i in dying:
            engine.halt(i, round_number)
            dying_now[i] = 0
        if dying:
            active = [i for i in active if alive[i]]

    def request_round() -> Dict[int, List[Tuple[int, int]]]:
        requests: Dict[int, List[Tuple[int, int]]] = {}
        messages = 0
        if tie_break == "min":
            # Smallest repr == smallest dense id == first valid slot, so
            # the default policy needs no candidate list at all.
            for c in active:
                if has_token[c]:
                    continue
                for s in range(par_ptr[c], par_ptr[c + 1]):
                    e = par_edge[s]
                    if consumed[e]:
                        continue
                    p = par_node[s]
                    if alive[p] and has_token[p]:
                        messages += 1
                        requests.setdefault(p, []).append((c, e))
                        break
        else:
            for c in active:
                if has_token[c]:
                    continue
                candidates = []
                for s in range(par_ptr[c], par_ptr[c + 1]):
                    e = par_edge[s]
                    if consumed[e]:
                        continue
                    p = par_node[s]
                    if alive[p] and has_token[p]:
                        candidates.append((p, e))
                if not candidates:
                    continue
                p, e = _pick(candidates, tie_break, rngs[c] if rngs else None)
                messages += 1
                requests.setdefault(p, []).append((c, e))
        engine.messages += messages
        return requests

    def grant_round(requests: Dict[int, List[Tuple[int, int]]]) -> None:
        messages = 0
        for p, requesters in requests.items():
            # p announced this game round, so it is alive and still holds
            # its token; the requesters are current children (ascending,
            # because request_round scans nodes in dense order).
            c, e = _pick(requesters, tie_break, rngs[p] if rngs else None)
            messages += 1
            tok = token[p]
            passed[p].append((tok, c))
            consumed[e] = 1
            n_chi[p] -= 1
            has_token[p] = 0
            token[p] = -1
            pending_grants.append((c, p, tok))
        engine.messages += messages

    announce(0)
    while engine.n_alive:
        engine.step()
        requests = request_round()
        engine.step()
        grant_round(requests)
        announce(engine.step())

    return has_token, token, received, passed, consumed, engine


def proposal_kernel(
    net: CompactNetwork,
    max_rounds: int,
    *,
    tie_break: str = "min",
    seed: int = 0,
) -> Tuple[List[dict], ExecutionMetrics]:
    """Simulate the proposal algorithm's execution on flat int arrays.

    Returns per-dense-node outputs (the dicts the reference nodes pass to
    ``ctx.halt``) and reference-equal execution metrics.
    """
    game = _DenseGame.of(net)
    ids = net.node_ids
    initially = bytes(game.has_token)
    has_token, token, received, passed, _, engine = proposal_game_kernel(
        game,
        max_rounds,
        tie_break=tie_break,
        rngs=_node_rngs(tie_break, seed, ids),
    )
    outputs = _halt_outputs(ids, initially, has_token, token, received, passed)
    return outputs, engine.metrics(ids)


# ----------------------------------------------------------------------
# The three-level algorithm (Theorem 4.7)
# ----------------------------------------------------------------------
def three_level_kernel(
    net: CompactNetwork,
    max_rounds: int,
    *,
    tie_break: str = "min",
    seed: int = 0,
) -> Tuple[List[dict], ExecutionMetrics]:
    """Simulate the height-3 algorithm's execution on flat int arrays."""
    game = _DenseGame.of(net)
    n = game.num_nodes
    engine = CompactEngine(n, max_rounds)
    alive = engine.alive
    level = game.level
    par_ptr, par_node, par_edge = game.par_ptr, game.par_node, game.par_edge
    chi_ptr, chi_node, chi_edge = game.chi_ptr, game.chi_node, game.chi_edge

    has_token = bytearray(game.has_token)
    initially = bytes(has_token)
    token = [i if has_token[i] else -1 for i in range(n)]
    n_par = [par_ptr[i + 1] - par_ptr[i] for i in range(n)]
    n_chi = [chi_ptr[i + 1] - chi_ptr[i] for i in range(n)]
    consumed = bytearray(game.num_edges)
    received: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    passed: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    rngs = _node_rngs(tie_break, seed, net.node_ids)

    active = list(range(n))
    dying_now = bytearray(n)
    # In-flight GRANTs to level-1 nodes and ACCEPTs to level-1 proposers,
    # both applied at the next announce round (reference inbox timing).
    pending_grants: List[Tuple[int, int, int]] = []
    pending_accepts: List[Tuple[int, int]] = []

    def announce(round_number: int) -> None:
        nonlocal active
        for c, p, tok in pending_grants:
            has_token[c] = 1
            token[c] = tok
            received[c].append((tok, p))
            n_par[c] -= 1
        pending_grants.clear()
        for p, c in pending_accepts:
            # The accepted proposer still holds the proposed token.
            passed[p].append((token[p], c))
            n_chi[p] -= 1
            has_token[p] = 0
            token[p] = -1
        pending_accepts.clear()
        dying = []
        for i in active:
            lvl = level[i]
            if lvl == 2:
                die = (not has_token[i]) or n_chi[i] == 0
            elif lvl == 0:
                die = bool(has_token[i]) or n_par[i] == 0
            else:
                die = (n_chi[i] == 0) if has_token[i] else (n_par[i] == 0)
            if die:
                dying.append(i)
                dying_now[i] = 1
        messages = 0
        for i in dying:
            messages += _leave_messages(
                i, game, alive, dying_now, consumed, n_par, n_chi
            )
        # Counter-based delivery counts, as in proposal_kernel's announce:
        # after this round's LEAVE decrements, n_chi/n_par hold exactly the
        # unconsumed edges to neighbours that have not left, and same-round
        # deaths drop the message per the scheduler rule.
        for i in active:
            if dying_now[i]:
                continue
            lvl = level[i]
            if lvl == 2 and has_token[i]:
                messages += n_chi[i]
            elif lvl == 0 and not has_token[i]:
                messages += n_par[i]
        engine.messages += messages
        for i in dying:
            engine.halt(i, round_number)
            dying_now[i] = 0
        if dying:
            active = [i for i in active if alive[i]]

    def act_round() -> Tuple[
        Dict[int, List[Tuple[int, int]]], Dict[int, List[Tuple[int, int, int]]]
    ]:
        requests: Dict[int, List[Tuple[int, int]]] = {}
        proposals: Dict[int, List[Tuple[int, int, int]]] = {}
        messages = 0
        first = tie_break == "min"
        for i in active:
            if level[i] != 1:
                continue
            if not has_token[i]:
                candidates = []
                for s in range(par_ptr[i], par_ptr[i + 1]):
                    e = par_edge[s]
                    if consumed[e]:
                        continue
                    p = par_node[s]
                    if alive[p] and has_token[p]:
                        candidates.append((p, e))
                        if first:
                            break
                if not candidates:
                    continue
                p, e = _pick(candidates, tie_break, rngs[i] if rngs else None)
                messages += 1
                requests.setdefault(p, []).append((i, e))
            else:
                candidates = []
                for s in range(chi_ptr[i], chi_ptr[i + 1]):
                    e = chi_edge[s]
                    if consumed[e]:
                        continue
                    c = chi_node[s]
                    # Level-0 survivors are exactly the unoccupied nodes
                    # that announced UNOCCUPIED this game round.
                    if alive[c] and not has_token[c]:
                        candidates.append((c, e))
                        if first:
                            break
                if not candidates:
                    continue
                c, e = _pick(candidates, tie_break, rngs[i] if rngs else None)
                messages += 1
                proposals.setdefault(c, []).append((i, e, token[i]))
        engine.messages += messages
        return requests, proposals

    def resolve_round(
        requests: Dict[int, List[Tuple[int, int]]],
        proposals: Dict[int, List[Tuple[int, int, int]]],
    ) -> None:
        messages = 0
        for p, requesters in requests.items():
            # Level-2 granters announced this game round, so they are
            # alive and hold their token.
            c, e = _pick(requesters, tie_break, rngs[p] if rngs else None)
            messages += 1
            tok = token[p]
            passed[p].append((tok, c))
            consumed[e] = 1
            n_chi[p] -= 1
            has_token[p] = 0
            token[p] = -1
            pending_grants.append((c, p, tok))
        for c, offers in proposals.items():
            # Level-0 acceptors announced UNOCCUPIED, so they are alive
            # and unoccupied; the edge is consumed on both sides now (the
            # proposer learns via the pending ACCEPT next round).
            p, e, tok = _pick(offers, tie_break, rngs[c] if rngs else None)
            messages += 1
            has_token[c] = 1
            token[c] = tok
            received[c].append((tok, p))
            consumed[e] = 1
            n_par[c] -= 1
            pending_accepts.append((p, c))
        engine.messages += messages

    announce(0)
    while engine.n_alive:
        engine.step()
        requests, proposals = act_round()
        engine.step()
        resolve_round(requests, proposals)
        announce(engine.step())

    ids = net.node_ids
    outputs = _halt_outputs(ids, initially, has_token, token, received, passed)
    return outputs, engine.metrics(ids)


# ----------------------------------------------------------------------
# The centralized greedy baseline (Section 4)
# ----------------------------------------------------------------------
def greedy_kernel(
    instance: TokenDroppingInstance,
    *,
    order: str = "first",
    seed: int = 0,
) -> TokenDroppingSolution:
    """Run the centralized greedy baseline on flat int arrays.

    Replays :func:`~repro.core.token_dropping.greedy.greedy_token_dropping`
    move for move: the reference scans every token's children each
    iteration and sorts candidates by ``repr``; the kernel keeps an
    incremental movable-children count per node, so each move costs
    O(tokens + Δ) integer work instead of O(tokens · Δ) hashing plus an
    O(tokens log tokens) string sort.
    """
    game, node_ids, index_of = _DenseGame.from_instance(instance)
    level = game.level
    par_ptr, par_node, par_edge = game.par_ptr, game.par_node, game.par_edge
    chi_ptr, chi_node, chi_edge = game.chi_ptr, game.chi_node, game.chi_edge

    rng = random.Random(seed)
    occupied = bytearray(game.has_token)
    consumed = bytearray(game.num_edges)
    # The reference iterates candidates in token-insertion order (the
    # iteration order of ``instance.tokens``), which the seeded ``random``
    # policy indexes into — so that order is part of the replayed state.
    tokens_in_order = [index_of[t] for t in instance.tokens]
    tokens_ascending = sorted(tokens_in_order)
    position = [-1] * game.num_nodes
    paths: Dict[int, List[int]] = {}
    for t in tokens_in_order:
        position[t] = t
        paths[t] = [t]
    history: List[List[Tuple[int, int]]] = [[] for _ in range(game.num_nodes)]

    # movable[v] = number of children reachable from v over an unconsumed
    # edge and currently unoccupied; a token is movable iff its node has
    # a positive count.  Maintained incrementally per move.
    movable = [0] * game.num_nodes
    for v in range(game.num_nodes):
        count = 0
        for s in range(chi_ptr[v], chi_ptr[v + 1]):
            if not occupied[chi_node[s]]:
                count += 1
        movable[v] = count

    while True:
        chosen = -1
        if order == "first":
            for t in tokens_ascending:
                if movable[position[t]]:
                    chosen = t
                    break
        elif order == "random":
            candidates = [t for t in tokens_in_order if movable[position[t]]]
            if candidates:
                chosen = candidates[rng.randrange(len(candidates))]
        elif order == "highest_level":
            best_key = None
            for t in tokens_in_order:
                if movable[position[t]]:
                    key = (level[position[t]], t)
                    if best_key is None or key > best_key:
                        best_key = key
                        chosen = t
        else:  # lowest_level
            best_key = None
            for t in tokens_in_order:
                if movable[position[t]]:
                    key = (level[position[t]], t)
                    if best_key is None or key < best_key:
                        best_key = key
                        chosen = t
        if chosen < 0:
            break

        node = position[chosen]
        if order != "random":
            # First unconsumed slot to an unoccupied child == the
            # reference's smallest-repr child.
            child = edge = -1
            for s in range(chi_ptr[node], chi_ptr[node + 1]):
                if not consumed[chi_edge[s]] and not occupied[chi_node[s]]:
                    child, edge = chi_node[s], chi_edge[s]
                    break
        else:
            steps = [
                (chi_node[s], chi_edge[s])
                for s in range(chi_ptr[node], chi_ptr[node + 1])
                if not consumed[chi_edge[s]] and not occupied[chi_node[s]]
            ]
            child, edge = steps[rng.randrange(len(steps))]

        consumed[edge] = 1
        movable[node] -= 1  # the chosen child was unoccupied
        occupied[node] = 0
        for s in range(par_ptr[node], par_ptr[node + 1]):
            if not consumed[par_edge[s]]:
                movable[par_node[s]] += 1
        occupied[child] = 1
        for s in range(par_ptr[child], par_ptr[child + 1]):
            if not consumed[par_edge[s]]:
                movable[par_node[s]] -= 1
        position[chosen] = child
        paths[chosen].append(child)
        history[node].append((chosen, child))

    traversals = {
        node_ids[t]: Traversal(node_ids[t], [node_ids[v] for v in path])
        for t, path in paths.items()
    }
    pass_history = {
        node_ids[v]: tuple((node_ids[t], node_ids[c]) for t, c in events)
        for v, events in enumerate(history)
        if events
    }
    return TokenDroppingSolution(
        traversals=traversals,
        pass_history=pass_history,
        game_rounds=None,
        communication_rounds=None,
    )
