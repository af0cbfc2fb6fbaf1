"""Centralized sequential baselines for the token dropping game.

Section 4 of the paper notes "there is a trivial centralized sequential
algorithm for solving the token dropping problem: repeatedly pick any
token that can be moved downwards and move it by one step."  This module
implements that baseline with several pick orders; it is used

* as a correctness cross-check for the distributed algorithms (both must
  produce valid solutions on the same instances),
* as the reference point in the ablation benchmark on move-selection
  policies, and
* to measure the *sequential* work (total single-step moves) that the
  distributed algorithms parallelise.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Set, Tuple

from repro.core.token_dropping.game import TokenDroppingInstance
from repro.core.token_dropping.traversal import TokenDroppingSolution, Traversal

NodeId = Hashable

#: Supported centralized move-selection policies.
GREEDY_ORDERS = ("first", "random", "highest_level", "lowest_level")


def greedy_token_dropping(
    instance: TokenDroppingInstance,
    *,
    order: str = "first",
    seed: int = 0,
) -> TokenDroppingSolution:
    """Solve an instance by repeatedly moving one movable token a single step.

    Parameters
    ----------
    instance:
        The game to solve.
    order:
        Which movable token to move next:

        * ``"first"`` -- the deterministic default: smallest node (by repr)
          holding a movable token;
        * ``"random"`` -- uniform over movable tokens (seeded);
        * ``"highest_level"`` -- prefer tokens on high levels (they have
          the longest way down);
        * ``"lowest_level"`` -- prefer tokens near the bottom.
    seed:
        Seed for the ``"random"`` policy.

    Runs the int-array kernel, which reproduces
    :func:`greedy_token_dropping_reference` exactly.

    Returns
    -------
    TokenDroppingSolution
        With ``game_rounds=None`` (the baseline is sequential); the number
        of sequential single-step moves is ``solution.total_moves()``.
    """
    from repro.core.token_dropping._kernels import greedy_kernel

    _check_order(order)
    return greedy_kernel(instance, order=order, seed=seed)


def _check_order(order: str) -> None:
    if order not in GREEDY_ORDERS:
        raise ValueError(f"unknown order {order!r}; expected one of {GREEDY_ORDERS}")


def greedy_token_dropping_reference(
    instance: TokenDroppingInstance,
    *,
    order: str = "first",
    seed: int = 0,
) -> TokenDroppingSolution:
    """:func:`greedy_token_dropping` as a readable dict-based loop (the oracle)."""
    _check_order(order)
    rng = random.Random(seed)
    graph = instance.graph

    # position of each token (keyed by the token's original node) and the
    # reverse index of which token occupies a node.
    position: Dict[NodeId, NodeId] = {token: token for token in instance.tokens}
    occupant: Dict[NodeId, NodeId] = {token: token for token in instance.tokens}
    paths: Dict[NodeId, List[NodeId]] = {token: [token] for token in instance.tokens}
    pass_history: Dict[NodeId, List[Tuple[NodeId, NodeId]]] = {}
    consumed: Set[Tuple[NodeId, NodeId]] = set()

    def movable_children(node: NodeId) -> List[NodeId]:
        """Unoccupied children reachable over unconsumed edges."""
        return [
            child
            for child in graph.children(node)
            if child not in occupant and (child, node) not in consumed
        ]

    def movable_tokens() -> List[NodeId]:
        return [
            token for token, node in position.items() if movable_children(node)
        ]

    while True:
        candidates = movable_tokens()
        if not candidates:
            break
        if order == "first":
            token = sorted(candidates, key=repr)[0]
        elif order == "random":
            token = candidates[rng.randrange(len(candidates))]
        elif order == "highest_level":
            token = max(candidates, key=lambda t: (graph.level(position[t]), repr(t)))
        else:  # lowest_level
            token = min(candidates, key=lambda t: (graph.level(position[t]), repr(t)))

        node = position[token]
        children = sorted(movable_children(node), key=repr)
        child = (
            children[0]
            if order != "random"
            else children[rng.randrange(len(children))]
        )

        consumed.add((child, node))
        del occupant[node]
        occupant[child] = token
        position[token] = child
        paths[token].append(child)
        pass_history.setdefault(node, []).append((token, child))

    traversals = {token: Traversal(token, path) for token, path in paths.items()}
    return TokenDroppingSolution(
        traversals=traversals,
        pass_history={node: tuple(events) for node, events in pass_history.items()},
        game_rounds=None,
        communication_rounds=None,
    )


def exhaustive_is_stuck(
    instance: TokenDroppingInstance, solution: TokenDroppingSolution
) -> bool:
    """Independent check that the final configuration is stuck.

    Recomputes, from scratch, whether any token could still move given the
    consumed edges and final occupancy -- a redundant (and intentionally
    differently-coded) version of the maximality rule used in tests.
    """
    occupied = solution.destinations
    consumed = solution.consumed_edges()
    graph = instance.graph
    for node in occupied:
        for child in graph.children(node):
            if child in occupied:
                continue
            if (child, node) in consumed:
                continue
            return False
    return True
