"""Int-array fast-path kernels for the token dropping game.

These are the compact counterparts of the three token dropping solvers:

* :func:`greedy_kernel` — the centralized sequential baseline
  (:func:`~repro.core.token_dropping.greedy.greedy_token_dropping_reference`);
* :func:`proposal_kernel` — the distributed proposal algorithm
  (Theorem 4.1, :mod:`repro.core.token_dropping.proposal`);
* :func:`three_level_kernel` — the O(Δ) height-3 algorithm
  (Theorem 4.7, :mod:`repro.core.token_dropping.three_level`).

Each kernel re-represents its input once, through the one builder
:func:`game_from_arrays` — dense node ids in ``repr``-sorted order,
parent/child adjacency as flat ``array('q')`` CSR buffers sharing one
edge-id space, the parent slots — and then simulates the *same
execution* the reference path performs, touching only integer arrays:
token positions, per-edge consumed flags, incremental parent/child
counts, and request/grant buffers instead of per-message dict
envelopes.  :func:`proposal_game_kernel` keeps them in NumPy arrays and
plays each LOCAL round as vector ops over the live nodes; the
three-level and greedy kernels loop over the ``array('q')`` buffers in
Python.

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
register them via ``AlgorithmFactory(..., compact_kernel=...)``; an
untraced :meth:`~repro.local_model.runner.Runner.run` hands the kernel
its :class:`~repro.local_model.network.Network` (interned once per
network by :func:`network_game`) and
:meth:`~repro.local_model.runner.Runner.run_reference` takes the per-node
scheduler.
"""

from __future__ import annotations

import random
from array import array
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Tuple

from repro.core.token_dropping.game import (
    LOCAL_HAS_TOKEN,
    LOCAL_LEVEL,
    LOCAL_PARENTS,
    TokenDroppingInstance,
)
from repro.core.token_dropping.traversal import TokenDroppingSolution, Traversal
from repro.graphs.compact import intern_nodes
from repro.local_model.compact import CompactEngine
from repro.local_model.errors import RoundLimitExceeded
from repro.local_model.metrics import ExecutionMetrics
from repro.local_model.network import Network

if TYPE_CHECKING:
    import numpy as np


class _DenseGame:
    """Directed layered adjacency in flat ``array('q')`` CSR buffers.

    Game edge ``e`` is parent slot ``e``: edge ids number the edges in
    ascending ``(child, parent)`` order, so ``par_node[e]`` is the parent
    of edge ``e`` and the child CSR names its edges by ``chi_edge``.
    Each edge thus appears once in its child's parent list and once in
    its parent's child list, and a single ``consumed`` byte per edge
    serves both endpoints.  Rows are ascending per node (dense ids are
    interned in ``repr`` order), which is exactly the reference
    tie-break order.  Only :func:`game_from_arrays` builds one.
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "has_token",
        "level",
        "par_ptr",
        "par_node",
        "chi_ptr",
        "chi_node",
        "chi_edge",
    )

    def __init__(
        self, has_token, level, par_ptr, par_node, chi_ptr, chi_node, chi_edge
    ) -> None:
        self.num_nodes = len(level)
        self.num_edges = len(par_node)
        self.has_token: bytearray = has_token
        self.level: List[int] = level
        self.par_ptr: array = par_ptr
        self.par_node: array = par_node
        self.chi_ptr: array = chi_ptr
        self.chi_node: array = chi_node
        self.chi_edge: array = chi_edge

    @classmethod
    def from_instance(
        cls, instance: TokenDroppingInstance
    ) -> Tuple["_DenseGame", Tuple, Dict]:
        """Intern a :class:`TokenDroppingInstance` directly (one pass)."""
        graph = instance.graph
        node_ids, index_of = intern_nodes(graph.levels)
        child = []
        parent = []
        for i, node in enumerate(node_ids):
            for x in graph.parents(node):
                child.append(i)
                parent.append(index_of[x])
        game, _ = game_from_arrays(
            len(node_ids),
            [node in instance.tokens for node in node_ids],
            [graph.levels[node] for node in node_ids],
            child,
            parent,
        )
        return game, node_ids, index_of


def network_game(network: Network) -> Tuple[_DenseGame, Tuple[Any, ...]]:
    """The dense game of a token-dropping ``network`` and its dense ids.

    Interns the node ids in ``repr``-sorted order and reads every node's
    token-dropping local input once.  Networks are immutable, so the pair
    is memoized on the network (``Network._compact_cache``): repeated
    executions reuse it, and kernels copy the mutable pieces (token flags)
    before simulating, so the memo stays pristine.
    """
    cached = getattr(network, "_compact_cache", None)
    if cached is not None:
        return cached
    node_ids, index_of = intern_nodes(iter(network))
    inputs = [network.local_input(node) or {} for node in node_ids]
    child = []
    parent = []
    for i, local in enumerate(inputs):
        for x in local.get(LOCAL_PARENTS, ()):
            child.append(i)
            parent.append(index_of[x])
    game, _ = game_from_arrays(
        len(node_ids),
        [bool(local.get(LOCAL_HAS_TOKEN)) for local in inputs],
        [int(local.get(LOCAL_LEVEL) or 0) for local in inputs],
        child,
        parent,
    )
    network._compact_cache = (game, node_ids)
    return game, node_ids


def game_from_arrays(
    num_nodes: int, has_token, levels, child, parent
) -> Tuple[_DenseGame, Any]:
    """Build the dense game of the edges ``child[k] -> parent[k]``.

    The one :class:`_DenseGame` builder: the orientation phase driver
    hands it NumPy arrays, :func:`network_game` and
    :meth:`_DenseGame.from_instance` Python lists, and
    :func:`~repro.workloads.scenarios.scale_token_dropping` ``array('q')``
    buffers.  Callers that already hold dense node ids never pay for a
    dict :class:`TokenDroppingInstance`/``to_network`` round-trip.

    Parameters
    ----------
    num_nodes:
        Number of dense nodes; all arrays are indexed ``0 .. num_nodes-1``.
    has_token / levels:
        Per-node token flag and level.
    child / parent:
        The endpoints of each directed game edge as flat int sequences,
        in any order and free of duplicate pairs.

    Returns
    -------
    (game, order)
        The dense game, whose edge ids ascend in ``(child, parent)``
        order, and the NumPy ``int64`` permutation ``order``:
        ``order[e]`` is the input position of game edge ``e``.
    """
    import numpy as np

    child = np.asarray(child, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    order = np.lexsort((parent, child))
    par_node = parent[order]
    # Game edges ascend by child, so a stable sort by parent lists each
    # parent's edges by ascending child.
    by_parent = np.argsort(par_node, kind="stable")

    def ptr(rows):
        counts = np.bincount(rows, minlength=num_nodes)
        return _index_array(np.concatenate(([0], np.cumsum(counts))))

    game = _DenseGame(
        bytearray(np.asarray(has_token, dtype=bool).tobytes()),
        np.asarray(levels, dtype=np.int64).tolist(),
        ptr(child),
        _index_array(par_node),
        ptr(parent),
        _index_array(child[order][by_parent]),
        _index_array(by_parent),
    )
    return game, order


def _index_array(values) -> array:
    """An ``array('q')`` copy of a NumPy integer array."""
    return array("q", values.astype("int64", copy=False).tobytes())


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
    """LEAVE fan-out of one dying node in :func:`three_level_kernel`.

    Counts deliveries to surviving neighbours (receivers halting in the
    same round drop the message, per the scheduler rule) and removes the
    dying node from each survivor's parent/child count.
    """
    par_ptr, par_node = game.par_ptr, game.par_node
    chi_ptr, chi_node, chi_edge = game.chi_ptr, game.chi_node, game.chi_edge
    messages = 0
    for s in range(par_ptr[i], par_ptr[i + 1]):
        if consumed[s]:
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


def _halt_outputs(ids, initially, token, received, passed) -> Dict:
    """Per-node halt outputs keyed by original id (both round kernels).

    ``token[i]`` is the dense id of node ``i``'s final token, ``-1`` when
    it ends unoccupied.
    """
    return {
        node: {
            "initially_occupied": bool(initially[i]),
            "finally_occupied": token[i] >= 0,
            "final_token": ids[token[i]] if token[i] >= 0 else None,
            "received": tuple((ids[t], ids[s]) for t, s in received[i]),
            "passed": tuple((ids[t], ids[c]) for t, c in passed[i]),
        }
        for i, node in enumerate(ids)
    }


# ----------------------------------------------------------------------
# The distributed proposal algorithm (Theorem 4.1)
# ----------------------------------------------------------------------
class ProposalRun(NamedTuple):
    """The end state and pass log of one proposal-game execution.

    ``token[i]`` is the dense id of the token node ``i`` finally holds
    (``-1`` when unoccupied), ``consumed[e]`` marks the game edges used by
    passes, and ``halt_round[i]`` is the round node ``i`` halted at.
    ``passes`` is a ``(4, k)`` ``int64`` array whose rows are the grant
    round, parent, child and token of every pass, in execution order.
    ``rounds`` and ``messages`` are the reference scheduler's counts.
    """

    token: np.ndarray
    consumed: np.ndarray
    halt_round: np.ndarray
    passes: np.ndarray
    rounds: int
    messages: int


def _group_picks(owner, tie_break: str, rngs) -> np.ndarray:
    """One pick per run of equal ``owner`` values, as positions.

    ``owner`` lists each group's candidates contiguously, in reference
    order.  ``min`` picks each group's first candidate, ``max`` its last,
    and ``random`` draws ``rngs[owner].randrange(size)`` once per group,
    in ascending group order.  Groups of size 1 draw too:
    ``randrange(1)`` consumes a 32-bit word of the generator, as the
    reference ``_choose`` does.
    """
    import numpy as np

    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    if tie_break == "min" or not len(starts):
        return starts
    ends = np.append(starts[1:], len(owner))
    if tie_break == "max":
        return ends - 1
    draws = [
        rngs[i].randrange(size)
        for i, size in zip(owner[starts].tolist(), (ends - starts).tolist())
    ]
    return starts + np.array(draws, dtype=np.int64)


def proposal_game_kernel(
    game: _DenseGame,
    max_rounds: int,
    *,
    tie_break: str = "min",
    rngs: Optional[List[random.Random]] = None,
) -> ProposalRun:
    """Run the proposal algorithm's execution on a dense game, in NumPy.

    The shared core behind :func:`proposal_kernel` (which plays the game
    of a :class:`~repro.local_model.network.Network`, see
    :func:`network_game`) and the Theorem 5.1 orientation kernel (which
    builds, via :func:`game_from_arrays`, only the token-bearing
    components of each phase's game and counts the rounds of the
    token-free ones in closed form).

    Every node's state — token, unconsumed parent and child counts,
    alive flag, halt round — lives in a NumPy array, and each LOCAL round
    is a handful of vector ops over ``active``, the nodes still alive:

    * ANNOUNCE delivers the last round's grants by scatter, halts the
      nodes that are occupied with no children or unoccupied with no
      parents (checked against the pre-``LEAVE`` counts, as a death only
      becomes visible the round after), and subtracts each dying node's
      ``LEAVE`` from its unconsumed neighbours' counts with one CSR
      gather;
    * REQUEST gathers the parent slots of the unoccupied nodes and keeps
      those whose edge is unconsumed and whose parent is alive and
      occupied; each child's candidates are contiguous and ascend in
      dense (= ``repr``) order, so it requests its first, last or drawn
      candidate;
    * GRANT sorts the requests stably by parent, so each parent's
      requesters ascend, and every parent passes its token to its first,
      last or drawn requester.

    Message counts are masked sums: a ``LEAVE`` reaches each unconsumed
    neighbour that survives the round, a survivor's ``HAVE_TOKEN`` each
    of its ``n_chi`` remaining children, and every request and grant is
    one message.  ``random`` draws ``rngs[i].randrange(count)`` for every
    requester and every granter (:func:`_group_picks`); per-node streams
    make the order across nodes irrelevant.
    """
    import numpy as np

    from repro.core.orientation._kernels import _csr_slots

    n = game.num_nodes
    par_ptr = np.frombuffer(game.par_ptr, dtype=np.int64)
    par_node = np.frombuffer(game.par_node, dtype=np.int64)
    chi_ptr = np.frombuffer(game.chi_ptr, dtype=np.int64)
    chi_node = np.frombuffer(game.chi_node, dtype=np.int64)
    chi_edge = np.frombuffer(game.chi_edge, dtype=np.int64)
    n_par = np.diff(par_ptr)
    n_chi = np.diff(chi_ptr)
    # Game edges ascend by child: ``edge_child[e]`` is edge e's child.
    edge_child = np.repeat(np.arange(n), n_par)

    has_token = np.frombuffer(game.has_token, dtype=bool).copy()
    token = np.where(has_token, np.arange(n), -1)
    consumed = np.zeros(game.num_edges, dtype=bool)
    alive = np.ones(n, dtype=bool)
    halt_round = np.full(n, -1, dtype=np.int64)
    active = np.arange(n)
    log = []
    messages = 0
    rounds = 0
    # In-flight grants, delivered at the next ANNOUNCE round exactly when
    # the reference node processes its inbox.
    grant_child = grant_token = active[:0]

    def enter_round() -> int:
        if rounds >= max_rounds:
            raise RoundLimitExceeded(max_rounds, len(active))
        return rounds + 1

    while True:
        # ANNOUNCE.
        has_token[grant_child] = True
        token[grant_child] = grant_token
        n_par[grant_child] -= 1
        dies = np.where(has_token[active], n_chi[active] == 0, n_par[active] == 0)
        dying = active[dies]
        active = active[~dies]
        alive[dying] = False
        halt_round[dying] = rounds
        up = _csr_slots(par_ptr, dying)
        up = par_node[up[~consumed[up]]]
        down = _csr_slots(chi_ptr, dying)
        down = chi_node[down[~consumed[chi_edge[down]]]]
        np.subtract.at(n_chi, up, 1)
        np.subtract.at(n_par, down, 1)
        holders = active[has_token[active]]
        messages += int(
            np.count_nonzero(alive[up])
            + np.count_nonzero(alive[down])
            + n_chi[holders].sum()
        )
        if not len(active):
            break

        # REQUEST.
        rounds = enter_round()
        slots = _csr_slots(par_ptr, active[~has_token[active]])
        parent = par_node[slots]
        slots = slots[~consumed[slots] & alive[parent] & has_token[parent]]
        asks = slots[_group_picks(edge_child[slots], tie_break, rngs)]
        messages += len(asks)

        # GRANT.
        rounds = enter_round()
        asks = asks[np.argsort(par_node[asks], kind="stable")]
        grants = asks[_group_picks(par_node[asks], tie_break, rngs)]
        granter = par_node[grants]
        grant_child = edge_child[grants]
        grant_token = token[granter]
        log.append((np.full(len(grants), rounds), granter, grant_child, grant_token))
        consumed[grants] = True
        n_chi[granter] -= 1
        has_token[granter] = False
        token[granter] = -1
        messages += len(grants)

        rounds = enter_round()

    passes = np.concatenate(log, axis=1) if log else np.empty((4, 0), dtype=np.int64)
    return ProposalRun(token, consumed, halt_round, passes, rounds, messages)


def proposal_kernel(
    network: Network,
    max_rounds: int,
    *,
    tie_break: str = "min",
    seed: int = 0,
) -> Tuple[Dict, ExecutionMetrics]:
    """Simulate the proposal algorithm's execution on flat int arrays.

    Returns per-node outputs keyed by node id (the dicts the reference
    nodes pass to ``ctx.halt``) and reference-equal execution metrics.
    """
    game, ids = network_game(network)
    run = proposal_game_kernel(
        game,
        max_rounds,
        tie_break=tie_break,
        rngs=_node_rngs(tie_break, seed, ids),
    )
    received: List[List[Tuple[int, int]]] = [[] for _ in ids]
    passed: List[List[Tuple[int, int]]] = [[] for _ in ids]
    _, parents, children, tokens = run.passes.tolist()
    for p, c, tok in zip(parents, children, tokens):
        passed[p].append((tok, c))
        received[c].append((tok, p))
    outputs = _halt_outputs(ids, game.has_token, run.token.tolist(), received, passed)
    metrics = ExecutionMetrics(
        rounds=run.rounds,
        messages_sent=run.messages,
        node_halt_rounds=dict(zip(ids, run.halt_round.tolist())),
        halted_nodes=len(ids),
        total_nodes=len(ids),
    )
    return outputs, metrics


# ----------------------------------------------------------------------
# The three-level algorithm (Theorem 4.7)
# ----------------------------------------------------------------------
def three_level_kernel(
    network: Network,
    max_rounds: int,
    *,
    tie_break: str = "min",
    seed: int = 0,
) -> Tuple[Dict, ExecutionMetrics]:
    """Simulate the height-3 algorithm's execution on flat int arrays."""
    game, ids = network_game(network)
    n = game.num_nodes
    engine = CompactEngine(n, max_rounds)
    alive = engine.alive
    level = game.level
    par_ptr, par_node = game.par_ptr, game.par_node
    chi_ptr, chi_node, chi_edge = game.chi_ptr, game.chi_node, game.chi_edge

    has_token = bytearray(game.has_token)
    initially = bytes(has_token)
    token = [i if has_token[i] else -1 for i in range(n)]
    n_par = [par_ptr[i + 1] - par_ptr[i] for i in range(n)]
    n_chi = [chi_ptr[i + 1] - chi_ptr[i] for i in range(n)]
    consumed = bytearray(game.num_edges)
    received: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    passed: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    rngs = _node_rngs(tie_break, seed, ids)

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
                    if consumed[s]:
                        continue
                    p = par_node[s]
                    if alive[p] and has_token[p]:
                        candidates.append((p, s))
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

    outputs = _halt_outputs(ids, initially, token, received, passed)
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
    par_ptr, par_node = game.par_ptr, game.par_node
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
            if not consumed[s]:
                movable[par_node[s]] += 1
        occupied[child] = 1
        for s in range(par_ptr[child], par_ptr[child + 1]):
            if not consumed[s]:
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
