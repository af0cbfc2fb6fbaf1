"""The O(Δ)-round algorithm for token dropping with three levels (Theorem 4.7).

Section 4.3 of the paper: when the nodes live on levels {0, 1, 2}, the
level-1 nodes can take the active role and shuttle tokens from level 2
down to level 0.  In every game round

* each **active and unoccupied level-1** node requests a token from a
  parent (level 2) that has a token;
* each **level-2** node that received a request passes its token to one
  requesting child;
* each **occupied level-1** node proposes its token to an unoccupied
  child (level 0);
* each **level-0** node that received proposals accepts one of them and
  thereby the offered token.

Termination: level-2 nodes terminate as soon as they are unoccupied;
level-0 nodes terminate when they are occupied or have no parents left;
level-1 nodes terminate when they are unoccupied with no parents or
occupied with no children.  Theorem 4.7 shows the whole game finishes in
O(Δ) game rounds because every round some neighbour of every still-active
level-1 node terminates.

As with the generic proposal algorithm, one game round is realised with
three LOCAL communication rounds (ANNOUNCE → ACT → RESOLVE).  Unlike the
generic algorithm the nodes use their layer index, which for this special
case is part of the promised input (the layering into {top, middle,
bottom} is exactly what the algorithm is specialised to).
"""

from __future__ import annotations

import random
from typing import Hashable, List, Optional, Tuple

from repro.core.tie_break import check_tie_break
from repro.core.token_dropping.game import (
    LOCAL_CHILDREN,
    LOCAL_HAS_TOKEN,
    LOCAL_LEVEL,
    LOCAL_PARENTS,
    TokenDroppingInstance,
)
from repro.core.token_dropping.proposal import (
    MSG_GRANT,
    MSG_HAVE_TOKEN,
    MSG_LEAVE,
    MSG_REQUEST,
    ROUNDS_PER_GAME_ROUND,
    _choose,
    reconstruct_solution,
)
from repro.core.token_dropping.traversal import TokenDroppingSolution
from repro.local_model import (
    AlgorithmFactory,
    ExecutionTrace,
    Inbox,
    NodeAlgorithm,
    NodeContext,
    Runner,
)

NodeId = Hashable

# Additional message kinds used only by the three-level algorithm.
MSG_UNOCCUPIED = "UNOCCUPIED"
MSG_PROPOSE = "PROPOSE"
MSG_ACCEPT = "ACCEPT"

#: Maximum level supported by the specialised algorithm (levels 0, 1, 2).
MAX_SUPPORTED_LEVEL = 2


class UnsupportedHeightError(ValueError):
    """Raised when the three-level algorithm is given a taller game."""


def _check_level(level: int) -> None:
    """Raise :class:`UnsupportedHeightError` for a level above 2.

    Both executions call it before their first round: each reference
    node on its own level, the round kernel on the game's top level.
    Above level 2 an occupied node can wait forever for an unoccupied
    child that waits for it, so a taller game would spin to the round
    limit or halt with an invalid solution.
    """
    if level > MAX_SUPPORTED_LEVEL:
        raise UnsupportedHeightError(
            f"the three-level algorithm supports levels 0..{MAX_SUPPORTED_LEVEL}, "
            f"got a node at level {level}"
        )


class ThreeLevelNode(NodeAlgorithm):
    """Per-node state machine for the three-level algorithm."""

    def __init__(self, node_id: NodeId, tie_break: str = "min", seed: int = 0) -> None:
        check_tie_break(tie_break)
        self.tie_break = tie_break
        self._rng = (
            random.Random(f"{seed}:{node_id!r}") if tie_break == "random" else None
        )

    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        local = ctx.local_input or {}
        self.level = int(local.get(LOCAL_LEVEL, 0))
        _check_level(self.level)
        self.parents = set(local.get(LOCAL_PARENTS, frozenset()))
        self.children = set(local.get(LOCAL_CHILDREN, frozenset()))
        self.has_token = bool(local.get(LOCAL_HAS_TOKEN, False))
        self.initially_occupied = self.has_token
        self.token: Optional[NodeId] = ctx.node_id if self.has_token else None
        self.received: List[Tuple[NodeId, NodeId]] = []
        self.passed: List[Tuple[NodeId, NodeId]] = []
        self.offers: set = set()
        self.free_children: set = set()
        self.requests: set = set()
        self.proposals: dict = {}
        self.pending_proposal: Optional[NodeId] = None
        self._announce_phase(ctx)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        self._process_inbox(inbox)
        phase = ctx.round_number % ROUNDS_PER_GAME_ROUND
        if phase == 1:
            self._act_phase(ctx)
        elif phase == 2:
            self._resolve_phase(ctx)
        else:
            self._announce_phase(ctx)

    # ------------------------------------------------------------------
    def _process_inbox(self, inbox: Inbox) -> None:
        for sender, message in inbox.items():
            kind = message[0]
            if kind == MSG_LEAVE:
                self.parents.discard(sender)
                self.children.discard(sender)
                self.offers.discard(sender)
                self.free_children.discard(sender)
                self.requests.discard(sender)
                self.proposals.pop(sender, None)
            elif kind == MSG_HAVE_TOKEN:
                if sender in self.parents:
                    self.offers.add(sender)
            elif kind == MSG_UNOCCUPIED:
                if sender in self.children:
                    self.free_children.add(sender)
            elif kind == MSG_REQUEST:
                if sender in self.children:
                    self.requests.add(sender)
            elif kind == MSG_PROPOSE:
                if sender in self.parents:
                    self.proposals[sender] = message[1]
            elif kind == MSG_GRANT:
                self.parents.discard(sender)
                self.has_token = True
                self.token = message[1]
                self.received.append((message[1], sender))
            elif kind == MSG_ACCEPT:
                # Our earlier proposal was accepted: the token is gone and
                # the connecting edge is consumed.
                if self.has_token and sender in self.children:
                    self.passed.append((self.token, sender))
                    self.children.discard(sender)
                    self.has_token = False
                    self.token = None
                self.pending_proposal = None

    # Phase 0: announcements + termination checks --------------------------
    def _announce_phase(self, ctx: NodeContext) -> None:
        self.offers.clear()
        self.free_children.clear()
        if self._should_terminate():
            self._terminate(ctx)
            return
        if self.level == 2 and self.has_token:
            for child in self.children:
                ctx.send(child, (MSG_HAVE_TOKEN,))
        elif self.level == 0 and not self.has_token:
            for parent in self.parents:
                ctx.send(parent, (MSG_UNOCCUPIED,))

    def _should_terminate(self) -> bool:
        if self.level == 2:
            # The paper removes level-2 nodes once unoccupied; an occupied
            # level-2 node whose children have all terminated can likewise
            # never act again, so it also halts (it keeps its token).
            return (not self.has_token) or (not self.children)
        if self.level == 0:
            return self.has_token or not self.parents
        # level 1
        return (not self.has_token and not self.parents) or (
            self.has_token and not self.children
        )

    # Phase 1: level-1 nodes act ------------------------------------------
    def _act_phase(self, ctx: NodeContext) -> None:
        if self.level != 1:
            return
        if not self.has_token:
            candidates = [p for p in self.offers if p in self.parents]
            if candidates:
                chosen = _choose(candidates, self.tie_break, self._rng)
                ctx.send(chosen, (MSG_REQUEST,))
        else:
            candidates = [c for c in self.free_children if c in self.children]
            if candidates:
                chosen = _choose(candidates, self.tie_break, self._rng)
                ctx.send(chosen, (MSG_PROPOSE, self.token))
                self.pending_proposal = chosen

    # Phase 2: level-2 grants, level-0 accepts -----------------------------
    def _resolve_phase(self, ctx: NodeContext) -> None:
        if self.level == 2 and self.has_token and self.requests:
            candidates = [c for c in self.requests if c in self.children]
            if candidates:
                chosen = _choose(candidates, self.tie_break, self._rng)
                ctx.send(chosen, (MSG_GRANT, self.token))
                self.passed.append((self.token, chosen))
                self.children.discard(chosen)
                self.has_token = False
                self.token = None
        elif self.level == 0 and not self.has_token and self.proposals:
            candidates = [p for p in self.proposals if p in self.parents]
            if candidates:
                chosen = _choose(candidates, self.tie_break, self._rng)
                token = self.proposals[chosen]
                ctx.send(chosen, (MSG_ACCEPT,))
                self.parents.discard(chosen)
                self.has_token = True
                self.token = token
                self.received.append((token, chosen))
        self.requests.clear()
        self.proposals.clear()

    # ------------------------------------------------------------------
    def _terminate(self, ctx: NodeContext) -> None:
        for neighbor in self.parents | self.children:
            ctx.send(neighbor, (MSG_LEAVE,))
        ctx.halt(
            {
                "initially_occupied": self.initially_occupied,
                "finally_occupied": self.has_token,
                "final_token": self.token,
                "received": tuple(self.received),
                "passed": tuple(self.passed),
            }
        )


def three_level_factory(tie_break: str = "min", seed: int = 0) -> AlgorithmFactory:
    """An :class:`AlgorithmFactory` for :class:`ThreeLevelNode`.

    Registers the NumPy round kernel
    (:func:`repro.core.token_dropping._kernels.three_level_game_kernel`),
    which an untraced :meth:`Runner.run` takes.
    """
    check_tie_break(tie_break)
    from repro.core.token_dropping._kernels import (
        play_network,
        three_level_game_kernel,
    )

    def compact_kernel(network, max_rounds):
        return play_network(
            three_level_game_kernel,
            network,
            max_rounds,
            tie_break=tie_break,
            seed=seed,
        )

    return AlgorithmFactory(
        lambda node_id: ThreeLevelNode(node_id, tie_break=tie_break, seed=seed),
        compact_kernel=compact_kernel,
    )


def theoretical_three_level_bound(
    instance: TokenDroppingInstance, constant: int = 8
) -> int:
    """A concrete O(Δ) game-round budget for Theorem 4.7."""
    return constant * (instance.max_degree + 1) + constant


def run_three_level_algorithm(
    instance: TokenDroppingInstance,
    *,
    tie_break: str = "min",
    seed: int = 0,
    max_rounds: Optional[int] = None,
    trace: Optional[ExecutionTrace] = None,
) -> TokenDroppingSolution:
    """Solve a height-≤-2 (three-level) token dropping instance in O(Δ) rounds.

    An untraced run takes the NumPy round kernel; a traced run (which
    records every message) the reference scheduler.  Both produce
    identical solutions and metrics.

    Raises
    ------
    UnsupportedHeightError
        If the instance uses a level above 2; use the generic proposal
        algorithm for taller games.
    """
    return reconstruct_solution(
        instance, _runner(instance, tie_break, seed, max_rounds, trace).run()
    )


def run_three_level_algorithm_reference(
    instance: TokenDroppingInstance,
    *,
    tie_break: str = "min",
    seed: int = 0,
    max_rounds: Optional[int] = None,
    trace: Optional[ExecutionTrace] = None,
) -> TokenDroppingSolution:
    """:func:`run_three_level_algorithm` on the per-node reference scheduler.

    The readable oracle the round kernel is cross-validated against.
    """
    return reconstruct_solution(
        instance,
        _runner(instance, tie_break, seed, max_rounds, trace).run_reference(),
    )


def _runner(
    instance: TokenDroppingInstance,
    tie_break: str,
    seed: int,
    max_rounds: Optional[int],
    trace: Optional[ExecutionTrace],
) -> Runner:
    factory = three_level_factory(tie_break=tie_break, seed=seed)
    if max_rounds is None:
        max_rounds = ROUNDS_PER_GAME_ROUND * theoretical_three_level_bound(instance)
    return Runner(
        instance.to_network(include_levels=True),
        factory,
        max_rounds=max_rounds,
        trace=trace,
    )
