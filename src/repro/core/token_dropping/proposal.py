"""The distributed proposal algorithm for the token dropping game (Theorem 4.1).

Section 4.1 of the paper: in every *game round*,

* every **active and unoccupied** node (a node without a token that has at
  least one parent holding a token) requests a token from some parent that
  has a token, ties broken arbitrarily;
* every node that receives at least one request passes its token to one
  (arbitrarily chosen) requesting child, thereby consuming that edge;
* a node terminates when it is occupied with no children, or unoccupied
  with no parents; terminated nodes are removed from the game.

Theorem 4.1 shows this finishes in ``O(L · Δ²)`` game rounds.

Implementation notes
--------------------
The paper folds the request/grant exchange into one "round"; to know which
parents currently hold a token a node additionally needs the parents'
occupancy announcements, so one *game round* here costs three LOCAL
communication rounds (ANNOUNCE → REQUEST → GRANT).  This is the constant
factor the paper alludes to ("each round of our algorithm actually
consists of two synchronous communication rounds"); the reproduction
reports both raw communication rounds and game rounds.

Tokens are tagged with the identifier of their starting node so the
traversals required by the output specification can be reconstructed
exactly from the per-node outputs (see :func:`reconstruct_solution`).
"""

from __future__ import annotations

import random
from math import ceil
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.tie_break import check_tie_break
from repro.core.token_dropping.game import (
    LOCAL_CHILDREN,
    LOCAL_HAS_TOKEN,
    LOCAL_PARENTS,
    TokenDroppingInstance,
)
from repro.core.token_dropping.traversal import (
    InvalidSolutionError,
    TokenDroppingSolution,
    Traversal,
)
from repro.local_model import (
    AlgorithmFactory,
    ExecutionResult,
    ExecutionTrace,
    Inbox,
    NodeAlgorithm,
    NodeContext,
    Runner,
)

NodeId = Hashable

#: Number of LOCAL communication rounds per game round of the proposal
#: algorithm (ANNOUNCE, REQUEST, GRANT).
ROUNDS_PER_GAME_ROUND = 3

# Message kinds ---------------------------------------------------------
MSG_HAVE_TOKEN = "HAVE_TOKEN"
MSG_REQUEST = "REQUEST"
MSG_GRANT = "GRANT"
MSG_LEAVE = "LEAVE"

def _choose(
    candidates: Sequence[NodeId], policy: str, rng: Optional[random.Random]
) -> NodeId:
    """Pick one candidate according to the tie-breaking policy."""
    ordered = sorted(candidates, key=repr)
    if policy == "min":
        return ordered[0]
    if policy == "max":
        return ordered[-1]
    assert rng is not None  # "random"; the policy was checked up front
    return ordered[rng.randrange(len(ordered))]


class ProposalNode(NodeAlgorithm):
    """Per-node state machine implementing the proposal algorithm.

    Parameters
    ----------
    tie_break:
        How a node picks among several token-offering parents (and how an
        occupied node picks among several requesting children): ``"min"``
        (smallest identifier, the deterministic default), ``"max"``, or
        ``"random"`` (seeded per node for reproducibility).
    seed:
        Base seed for the ``"random"`` policy.
    """

    def __init__(self, node_id: NodeId, tie_break: str = "min", seed: int = 0) -> None:
        check_tie_break(tie_break)
        self.tie_break = tie_break
        self._rng = (
            random.Random(f"{seed}:{node_id!r}") if tie_break == "random" else None
        )

    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        local = ctx.local_input or {}
        self.parents = set(local.get(LOCAL_PARENTS, frozenset()))
        self.children = set(local.get(LOCAL_CHILDREN, frozenset()))
        self.has_token = bool(local.get(LOCAL_HAS_TOKEN, False))
        self.initially_occupied = self.has_token
        self.token: Optional[NodeId] = ctx.node_id if self.has_token else None
        self.received: List[Tuple[NodeId, NodeId]] = []
        self.passed: List[Tuple[NodeId, NodeId]] = []
        self.offers: set = set()
        self.requests: set = set()
        self._announce_phase(ctx)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        self._process_inbox(inbox)
        phase = ctx.round_number % ROUNDS_PER_GAME_ROUND
        if phase == 1:
            self._request_phase(ctx)
        elif phase == 2:
            self._grant_phase(ctx)
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
                self.requests.discard(sender)
            elif kind == MSG_HAVE_TOKEN:
                if sender in self.parents:
                    self.offers.add(sender)
            elif kind == MSG_REQUEST:
                if sender in self.children:
                    self.requests.add(sender)
            elif kind == MSG_GRANT:
                token = message[1]
                # Receiving a token consumes the edge to the granting parent.
                self.parents.discard(sender)
                self.has_token = True
                self.token = token
                self.received.append((token, sender))

    def _request_phase(self, ctx: NodeContext) -> None:
        if self.has_token:
            return
        candidates = [p for p in self.offers if p in self.parents]
        if not candidates:
            return
        chosen = _choose(candidates, self.tie_break, self._rng)
        ctx.send(chosen, (MSG_REQUEST,))

    def _grant_phase(self, ctx: NodeContext) -> None:
        if self.has_token and self.requests:
            candidates = [c for c in self.requests if c in self.children]
            if candidates:
                chosen = _choose(candidates, self.tie_break, self._rng)
                ctx.send(chosen, (MSG_GRANT, self.token))
                self.passed.append((self.token, chosen))
                self.children.discard(chosen)
                self.has_token = False
                self.token = None
        self.requests.clear()
        self.offers.clear()

    def _announce_phase(self, ctx: NodeContext) -> None:
        self.offers.clear()
        if (self.has_token and not self.children) or (
            not self.has_token and not self.parents
        ):
            self._terminate(ctx)
            return
        if self.has_token:
            for child in self.children:
                ctx.send(child, (MSG_HAVE_TOKEN,))

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


def proposal_factory(tie_break: str = "min", seed: int = 0) -> AlgorithmFactory:
    """An :class:`AlgorithmFactory` for :class:`ProposalNode` with fixed policy.

    The factory also registers the NumPy round kernel
    (:func:`repro.core.token_dropping._kernels.proposal_game_kernel`),
    so an untraced :meth:`Runner.run` takes it, and it reproduces the
    reference execution exactly.
    """
    check_tie_break(tie_break)
    from repro.core.token_dropping._kernels import (
        play_network,
        proposal_game_kernel,
    )

    def compact_kernel(network, max_rounds):
        return play_network(
            proposal_game_kernel,
            network,
            max_rounds,
            tie_break=tie_break,
            seed=seed,
        )

    return AlgorithmFactory(
        lambda node_id: ProposalNode(node_id, tie_break=tie_break, seed=seed),
        compact_kernel=compact_kernel,
    )


# ----------------------------------------------------------------------
# Solution reconstruction and the public entry point
# ----------------------------------------------------------------------
def reconstruct_solution(
    instance: TokenDroppingInstance,
    result: ExecutionResult,
) -> TokenDroppingSolution:
    """Rebuild traversals from per-node outputs of the proposal algorithm.

    Every token is tagged with its starting node, so the traversal of token
    ``t`` is recovered by following, node by node, the unique pass event
    labelled ``t`` until reaching the node that finally holds ``t``.
    """
    outputs = result.outputs
    # Index: node -> {token -> child it was passed to from this node}.
    passes: Dict[NodeId, Dict[NodeId, NodeId]] = {}
    holders: Dict[NodeId, NodeId] = {}
    for node, output in outputs.items():
        if output is None:
            raise InvalidSolutionError(
                f"node {node!r} produced no output; execution is incomplete"
            )
        passes[node] = {token: child for token, child in output["passed"]}
        if output["finally_occupied"]:
            holders[output["final_token"]] = node

    traversals: Dict[NodeId, Traversal] = {}
    for token in instance.tokens:
        path = [token]
        current = token
        visited = {token}
        while token in passes.get(current, {}):
            current = passes[current][token]
            if current in visited:
                raise InvalidSolutionError(
                    f"cyclic pass history for token {token!r} at node {current!r}"
                )
            visited.add(current)
            path.append(current)
        if holders.get(token) != current:
            raise InvalidSolutionError(
                f"token {token!r} pass history ends at {current!r} but the final "
                f"holder is {holders.get(token)!r}"
            )
        traversals[token] = Traversal(token, path)

    pass_history = {
        node: tuple(output["passed"]) for node, output in outputs.items()
    }
    return TokenDroppingSolution(
        traversals=traversals,
        pass_history=pass_history,
        communication_rounds=result.metrics.rounds,
        game_rounds=ceil(result.metrics.rounds / ROUNDS_PER_GAME_ROUND),
    )


def run_proposal_algorithm(
    instance: TokenDroppingInstance,
    *,
    tie_break: str = "min",
    seed: int = 0,
    max_rounds: Optional[int] = None,
    trace: Optional[ExecutionTrace] = None,
) -> TokenDroppingSolution:
    """Solve a token dropping instance with the distributed proposal algorithm.

    Parameters
    ----------
    instance:
        The game to solve.
    tie_break, seed:
        Tie-breaking policy (see :class:`ProposalNode`).
    max_rounds:
        Hard budget on LOCAL communication rounds.  Defaults to
        ``ROUNDS_PER_GAME_ROUND`` times the Theorem 4.1 budget from
        :meth:`TokenDroppingInstance.theoretical_round_bound`, so exceeding
        the theorem's bound fails loudly.
    trace:
        Optional execution trace for inspection.  A traced run records
        every message, so it runs on the reference scheduler; an untraced
        run takes the int-array round kernel.  Both produce identical
        solutions and metrics.

    Returns
    -------
    TokenDroppingSolution
        Validated against the instance is the caller's choice; use
        ``solution.validate(instance)``.
    """
    return reconstruct_solution(
        instance, _runner(instance, tie_break, seed, max_rounds, trace).run()
    )


def run_proposal_algorithm_reference(
    instance: TokenDroppingInstance,
    *,
    tie_break: str = "min",
    seed: int = 0,
    max_rounds: Optional[int] = None,
    trace: Optional[ExecutionTrace] = None,
) -> TokenDroppingSolution:
    """:func:`run_proposal_algorithm` on the per-node reference scheduler.

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
    factory = proposal_factory(tie_break=tie_break, seed=seed)
    if max_rounds is None:
        max_rounds = ROUNDS_PER_GAME_ROUND * instance.theoretical_round_bound()
    return Runner(instance.to_network(), factory, max_rounds=max_rounds, trace=trace)
