"""Int-array fast-path kernels for the token dropping game.

These are the compact counterparts of the three token dropping solvers:

* :func:`greedy_kernel` — the centralized sequential baseline
  (:func:`~repro.core.token_dropping.greedy.greedy_token_dropping_reference`);
* :func:`proposal_game_kernel` — the distributed proposal algorithm
  (Theorem 4.1, :mod:`repro.core.token_dropping.proposal`);
* :func:`three_level_game_kernel` — the O(Δ) height-3 algorithm
  (Theorem 4.7, :mod:`repro.core.token_dropping.three_level`).

The reference simulator (:class:`~repro.local_model.scheduler.
SynchronousScheduler`) is the readable correctness oracle: per-node
state machines, per-message dict envelopes, hash-based neighbour sets,
one inbox and one outbox entry per message per round.  Each kernel
instead re-represents its input once, through the one builder
:func:`game_from_arrays` — dense node ids in ``repr``-sorted order,
parent/child adjacency as flat ``array('q')`` CSR buffers sharing one
edge-id space, the parent slots — and then simulates the *same
execution* the reference path performs, touching only integer arrays.
The two round kernels keep every node's state (token, unconsumed
parent/child counts, alive flag, halt round) in NumPy arrays, play each
LOCAL round as vector ops over the live nodes, and return one
:class:`ProposalRun`; the greedy kernel loops over the ``array('q')``
buffers in Python.

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
* the ``random`` tie-break gives each node the :class:`random.Random`
  the reference node seeds from ``f"{seed}:{node_id!r}"`` (seeded on its
  first draw), and each node draws at most once per game round, so every
  generator is consumed in the reference's per-node order;
* message counting replays the scheduler's delivery rule (messages to
  nodes that halted in or before the sending round are dropped), and the
  termination checks run against the same pre-``LEAVE`` neighbour counts
  the reference nodes observe;
* the round budget is the runner's: while nodes are active, a round may
  only start when fewer than ``max_rounds`` have completed, otherwise
  :class:`~repro.local_model.errors.RoundLimitExceeded` names the limit
  and the number of active nodes.

The cross-validation suite asserts all of this on hundreds of seeded
instances (``tests/integration/test_compact_cross_validation.py``).

The distributed kernels run behind the existing
:class:`~repro.local_model.runner.Runner` API: the algorithm factories
register :func:`play_network` via ``AlgorithmFactory(...,
compact_kernel=...)``; an untraced
:meth:`~repro.local_model.runner.Runner.run` hands it the
:class:`~repro.local_model.network.Network` itself (interned once per
network and memoized on it by :func:`network_game`) and
:meth:`~repro.local_model.runner.Runner.run_reference`, a traced run and
every algorithm without a kernel take the per-node scheduler.
"""

from __future__ import annotations

import random
from array import array
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.token_dropping.game import (
    LOCAL_HAS_TOKEN,
    LOCAL_LEVEL,
    LOCAL_PARENTS,
    TokenDroppingInstance,
)
from repro.core.token_dropping.traversal import TokenDroppingSolution, Traversal
from repro.graphs.compact import intern_nodes
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


class _NodeRngs(dict):
    """Per-node generators, each seeded on its first lookup.

    ``rngs[i]`` is ``random.Random(f"{seed}:{node_ids[i]!r}")``, the
    generator the reference node ``node_ids[i]`` builds, created the
    first time node ``i`` draws: most nodes of a game never draw, and a
    string seeding costs far more than the draws themselves.
    """

    __slots__ = ("seed", "node_ids")

    def __init__(self, seed: int, node_ids: Tuple) -> None:
        super().__init__()
        self.seed = seed
        self.node_ids = node_ids

    def __missing__(self, i: int) -> random.Random:
        rng = self[i] = random.Random(f"{self.seed}:{self.node_ids[i]!r}")
        return rng


def _node_rngs(
    tie_break: str, seed: int, node_ids: Tuple
) -> Optional[Dict[int, random.Random]]:
    """Per-node generators matching the reference node constructors."""
    if tie_break != "random":
        return None
    return _NodeRngs(seed, node_ids)


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
    """The end state and pass log of one round-kernel execution.

    Returned by both :func:`proposal_game_kernel` and
    :func:`three_level_game_kernel`.  ``token[i]`` is the dense id of the
    token node ``i`` finally holds (``-1`` when unoccupied),
    ``consumed[e]`` marks the game edges used by passes, and
    ``halt_round[i]`` is the round node ``i`` halted at.  ``passes`` is a
    ``(4, k)`` ``int64`` array whose rows are the round, parent, child
    and token of every pass (a grant, or an accepted proposal), in
    execution order.  ``rounds`` and ``messages`` are the reference
    scheduler's counts.
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
    rngs: Optional[Dict[int, random.Random]] = None,
) -> ProposalRun:
    """Run the proposal algorithm's execution on a dense game, in NumPy.

    The shared core behind :func:`play_network` (which plays the game
    of a :class:`~repro.local_model.network.Network`, see
    :func:`network_game`) and the Theorem 5.1 orientation kernel (which
    builds, via :func:`game_from_arrays`, only the token-bearing
    components of each phase's game and counts the rounds of the
    token-free ones in closed form).

    Every node's state — token, unconsumed parent and child counts,
    alive flag, halt round — lives in a NumPy array, and each LOCAL round
    is a handful of vector ops over ``active``, the nodes still alive:

    * ANNOUNCE halts the nodes that are occupied with no children or
      unoccupied with no parents (checked against the pre-``LEAVE``
      counts, as a death only becomes visible the round after), and
      subtracts each dying node's ``LEAVE`` from its unconsumed
      neighbours' counts with one CSR gather;
    * REQUEST gathers the parent slots of the unoccupied nodes and keeps
      those whose edge is unconsumed and whose parent is alive and
      occupied; each child's candidates are contiguous and ascend in
      dense (= ``repr``) order, so it requests its first, last or drawn
      candidate;
    * GRANT sorts the requests stably by parent, so each parent's
      requesters ascend, and every parent passes its token to its first,
      last or drawn requester.  The passes apply at once: nothing reads
      the state before the next ANNOUNCE, where the reference child
      takes its grant.

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

    def enter_round() -> int:
        if rounds >= max_rounds:
            raise RoundLimitExceeded(max_rounds, len(active))
        return rounds + 1

    while True:
        # ANNOUNCE.
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
        giver = par_node[grants]
        taker = edge_child[grants]
        moved = token[giver]
        log.append((np.full(len(grants), rounds), giver, taker, moved))
        consumed[grants] = True
        n_chi[giver] -= 1
        n_par[taker] -= 1
        has_token[giver] = False
        token[giver] = -1
        has_token[taker] = True
        token[taker] = moved
        messages += len(grants)

        rounds = enter_round()

    passes = np.concatenate(log, axis=1) if log else np.empty((4, 0), dtype=np.int64)
    return ProposalRun(token, consumed, halt_round, passes, rounds, messages)


# ----------------------------------------------------------------------
# The three-level algorithm (Theorem 4.7)
# ----------------------------------------------------------------------
def three_level_game_kernel(
    game: _DenseGame,
    max_rounds: int,
    *,
    tie_break: str = "min",
    rngs: Optional[Dict[int, random.Random]] = None,
) -> ProposalRun:
    """Run the three-level algorithm's execution on a dense game, in NumPy.

    The Theorem 4.7 counterpart of :func:`proposal_game_kernel`, with
    the same state arrays, round budget and pass log.  Each game round
    is three LOCAL rounds of vector ops over ``active``:

    * ANNOUNCE halts the level-2 nodes that are unoccupied or have no
      children left, the level-0 nodes that are occupied or have no
      parents left, and every other node by the proposal rule, then
      subtracts the dying nodes' ``LEAVE`` as the proposal kernel does;
      occupied level-2 survivors announce ``HAVE_TOKEN`` to their
      children and unoccupied level-0 survivors ``UNOCCUPIED`` to their
      parents;
    * ACT: every unoccupied level-1 node requests from its first, last
      or drawn live occupied parent, and every occupied level-1 node
      proposes its token to its first, last or drawn live unoccupied
      child;
    * RESOLVE: every level-2 node grants its token to one requester
      (requests sorted stably by parent, so its requesters ascend) and
      every level-0 node accepts one offer (offers sorted stably by
      child, so its proposers ascend).  Grants and accepts both apply at
      once, as passes from parent to child: nothing reads the state
      before the next ANNOUNCE.

    Each node draws at most once per game round (level 1 in ACT, levels
    2 and 0 in RESOLVE), so per-node streams make the order across nodes
    irrelevant and :func:`_group_picks` replays the reference draws.
    A level above 2 raises ``UnsupportedHeightError`` before round 0.
    """
    import numpy as np

    from repro.core.orientation._kernels import _csr_slots
    from repro.core.token_dropping.three_level import _check_level

    n = game.num_nodes
    par_ptr = np.frombuffer(game.par_ptr, dtype=np.int64)
    par_node = np.frombuffer(game.par_node, dtype=np.int64)
    chi_ptr = np.frombuffer(game.chi_ptr, dtype=np.int64)
    chi_node = np.frombuffer(game.chi_node, dtype=np.int64)
    chi_edge = np.frombuffer(game.chi_edge, dtype=np.int64)
    n_par = np.diff(par_ptr)
    n_chi = np.diff(chi_ptr)
    edge_child = np.repeat(np.arange(n), n_par)
    level = np.asarray(game.level, dtype=np.int64)
    _check_level(int(level.max(initial=0)))
    top = level == 2
    bottom = level == 0

    has_token = np.frombuffer(game.has_token, dtype=bool).copy()
    token = np.where(has_token, np.arange(n), -1)
    consumed = np.zeros(game.num_edges, dtype=bool)
    alive = np.ones(n, dtype=bool)
    halt_round = np.full(n, -1, dtype=np.int64)
    active = np.arange(n)
    log = []
    messages = 0
    rounds = 0

    def enter_round() -> int:
        if rounds >= max_rounds:
            raise RoundLimitExceeded(max_rounds, len(active))
        return rounds + 1

    while True:
        # ANNOUNCE.
        # Level-0 nodes have no children, so the proposal rule already
        # halts them once occupied; level-2 nodes halt once unoccupied.
        held = has_token[active]
        dies = np.where(held, n_chi[active] == 0, n_par[active] == 0)
        dies |= top[active] & ~held
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
        held = has_token[active]
        messages += int(
            np.count_nonzero(alive[up])
            + np.count_nonzero(alive[down])
            + n_chi[active[held & top[active]]].sum()
            + n_par[active[~held & bottom[active]]].sum()
        )
        if not len(active):
            break

        # ACT.
        rounds = enter_round()
        movers = active[level[active] == 1]
        held = has_token[movers]
        slots = _csr_slots(par_ptr, movers[~held])
        parent = par_node[slots]
        slots = slots[~consumed[slots] & alive[parent] & has_token[parent]]
        asks = slots[_group_picks(edge_child[slots], tie_break, rngs)]
        edges = chi_edge[_csr_slots(chi_ptr, movers[held])]
        child = edge_child[edges]
        edges = edges[~consumed[edges] & alive[child] & ~has_token[child]]
        offers = edges[_group_picks(par_node[edges], tie_break, rngs)]
        messages += len(asks) + len(offers)

        # RESOLVE.
        rounds = enter_round()
        asks = asks[np.argsort(par_node[asks], kind="stable")]
        offers = offers[np.argsort(edge_child[offers], kind="stable")]
        passes = np.concatenate(
            (
                asks[_group_picks(par_node[asks], tie_break, rngs)],
                offers[_group_picks(edge_child[offers], tie_break, rngs)],
            )
        )
        giver = par_node[passes]
        taker = edge_child[passes]
        moved = token[giver]
        log.append((np.full(len(passes), rounds), giver, taker, moved))
        consumed[passes] = True
        n_chi[giver] -= 1
        n_par[taker] -= 1
        has_token[giver] = False
        token[giver] = -1
        has_token[taker] = True
        token[taker] = moved
        messages += len(passes)

        rounds = enter_round()

    passes = np.concatenate(log, axis=1) if log else np.empty((4, 0), dtype=np.int64)
    return ProposalRun(token, consumed, halt_round, passes, rounds, messages)


# ----------------------------------------------------------------------
# Both round kernels behind the Runner
# ----------------------------------------------------------------------
def play_network(
    game_kernel: Callable[..., ProposalRun],
    network: Network,
    max_rounds: int,
    *,
    tie_break: str = "min",
    seed: int = 0,
) -> Tuple[Dict, ExecutionMetrics]:
    """Play ``game_kernel`` on the dense game of a token-dropping ``network``.

    The ``compact_kernel`` hook of both distributed token-dropping
    factories (``game_kernel`` is :func:`proposal_game_kernel` or
    :func:`three_level_game_kernel`).  Returns per-node outputs keyed by
    node id (the dicts the reference nodes pass to ``ctx.halt``) and
    reference-equal execution metrics.
    """
    game, ids = network_game(network)
    run = game_kernel(
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
