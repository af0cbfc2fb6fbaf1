"""Token traversals, solutions, and the three output rules.

The output of the token dropping game (Section 4, "Objective") assigns to
every token ``s`` a *traversal* ``p_s = (v_1, ..., v_d)`` from its original
node to its destination, moving one level down at every step.  A solution
is correct iff

1. the traversals are edge-disjoint ("each edge is used at most once"),
2. destinations are unique, and
3. every traversal is *maximal*: if ``v`` is the destination of a
   traversal, then each edge from a child ``u`` to ``v`` is either consumed
   by another traversal or ``u`` is itself the destination of another
   traversal (i.e. ``u`` ends up occupied).

:class:`TokenDroppingSolution` stores the traversals (one per token,
stationary tokens included as length-1 traversals) plus, when produced by
the proposal algorithm, the per-node *pass history* needed to compute the
tails and extended traversals of Definition 4.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.core.token_dropping.game import TokenDroppingInstance

NodeId = Hashable
#: A (child, parent) pair, matching :class:`repro.graphs.layered.LayeredGraph`.
DirectedEdge = Tuple[NodeId, NodeId]


class InvalidSolutionError(ValueError):
    """Raised when a proposed solution violates the game's output rules."""


@dataclass(frozen=True)
class Traversal:
    """The path of one token from its original node to its destination.

    ``path[0]`` is the node the token started on and ``path[-1]`` is its
    destination; consecutive nodes are (parent, child) pairs, i.e. the
    token moves down one level per step.  A stationary token has a path of
    length one.
    """

    token: NodeId
    path: Tuple[NodeId, ...]

    def __init__(self, token: NodeId, path: Sequence[NodeId]) -> None:
        path_tuple = tuple(path)
        if not path_tuple:
            raise InvalidSolutionError(
                f"traversal of token {token!r} has an empty path"
            )
        if path_tuple[0] != token:
            raise InvalidSolutionError(
                f"traversal of token {token!r} must start at the token's original "
                f"node, got {path_tuple[0]!r}"
            )
        object.__setattr__(self, "token", token)
        object.__setattr__(self, "path", path_tuple)

    @property
    def source(self) -> NodeId:
        """The node the token started on."""
        return self.path[0]

    @property
    def destination(self) -> NodeId:
        """The node the token ends on."""
        return self.path[-1]

    @property
    def length(self) -> int:
        """Number of edges traversed (0 for a stationary token)."""
        return len(self.path) - 1

    def edges_used(self) -> Tuple[DirectedEdge, ...]:
        """The (child, parent) edges consumed by this traversal, in order."""
        return tuple(
            (self.path[i + 1], self.path[i]) for i in range(len(self.path) - 1)
        )

    def __iter__(self):
        return iter(self.path)


@dataclass(frozen=True)
class ValidationReport:
    """Result of checking a solution against the three output rules."""

    valid: bool
    violations: Tuple[str, ...] = ()

    def raise_if_invalid(self) -> None:
        """Raise :class:`InvalidSolutionError` when the solution is invalid."""
        if not self.valid:
            raise InvalidSolutionError("; ".join(self.violations))


@dataclass(frozen=True)
class TokenDroppingSolution:
    """A full solution: one traversal per token, plus optional run metadata.

    Attributes
    ----------
    traversals:
        Mapping from token identifier (its original node) to its
        :class:`Traversal`.
    pass_history:
        For algorithm-produced solutions: for every node, the ordered list
        of ``(token, child)`` passes it performed.  Needed to compute the
        tails of Definition 4.3; empty for solutions built by hand.
    game_rounds:
        Number of *game* rounds the producing algorithm needed (each game
        round of the proposal algorithm corresponds to a constant number
        of communication rounds); ``None`` for hand-built solutions.
    communication_rounds:
        Number of raw LOCAL-model communication rounds; ``None`` for
        hand-built or centralized solutions.
    """

    traversals: Mapping[NodeId, Traversal]
    pass_history: Mapping[NodeId, Tuple[Tuple[NodeId, NodeId], ...]] = field(
        default_factory=dict
    )
    game_rounds: Optional[int] = None
    communication_rounds: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def destinations(self) -> FrozenSet[NodeId]:
        """Final positions of all tokens."""
        return frozenset(t.destination for t in self.traversals.values())

    def consumed_edges(self) -> FrozenSet[DirectedEdge]:
        """All (child, parent) edges consumed by some traversal."""
        edges: List[DirectedEdge] = []
        for traversal in self.traversals.values():
            edges.extend(traversal.edges_used())
        return frozenset(edges)

    def total_moves(self) -> int:
        """Total number of single-step token moves across all traversals."""
        return sum(t.length for t in self.traversals.values())

    def traversal_of(self, token: NodeId) -> Traversal:
        """The traversal of a specific token (keyed by its original node)."""
        return self.traversals[token]

    # ------------------------------------------------------------------
    def validate(self, instance: TokenDroppingInstance) -> ValidationReport:
        """Check this solution against the instance and the three rules."""
        violations: List[str] = []
        graph = instance.graph

        # One traversal per token, keyed by its starting node.
        traversal_tokens = set(self.traversals)
        if traversal_tokens != set(instance.tokens):
            missing = set(instance.tokens) - traversal_tokens
            extra = traversal_tokens - set(instance.tokens)
            if missing:
                violations.append(
                    f"missing traversal(s) for token(s) {sorted(map(repr, missing))}"
                )
            if extra:
                violations.append(
                    f"traversal(s) for non-existent token(s) {sorted(map(repr, extra))}"
                )

        # Path validity: every step goes from a node to one of its children.
        for token, traversal in self.traversals.items():
            if traversal.source != token:
                violations.append(
                    f"traversal keyed by {token!r} starts at {traversal.source!r}"
                )
            for parent, child in zip(traversal.path, traversal.path[1:]):
                if parent not in graph.levels or child not in graph.levels:
                    violations.append(
                        f"traversal of {token!r} visits unknown node(s) "
                        f"{parent!r} -> {child!r}"
                    )
                    continue
                if (child, parent) not in graph.edges:
                    violations.append(
                        f"traversal of {token!r} uses non-edge {parent!r} -> {child!r}"
                    )

        # Rule 1: edge-disjointness.
        seen_edges: Dict[DirectedEdge, NodeId] = {}
        for token, traversal in self.traversals.items():
            for edge in traversal.edges_used():
                if edge in seen_edges:
                    violations.append(
                        f"edge {edge!r} used by tokens {seen_edges[edge]!r} "
                        f"and {token!r}"
                    )
                else:
                    seen_edges[edge] = token

        # Rule 2: unique destinations.
        seen_destinations: Dict[NodeId, NodeId] = {}
        for token, traversal in self.traversals.items():
            destination = traversal.destination
            if destination in seen_destinations:
                violations.append(
                    f"tokens {seen_destinations[destination]!r} and {token!r} share "
                    f"destination {destination!r}"
                )
            else:
                seen_destinations[destination] = token

        # Rule 3: maximality.  For every destination v, each edge (u, v)
        # from a child u must be consumed or u must be occupied at the end.
        consumed = set(seen_edges)
        occupied = set(seen_destinations)
        for token, traversal in self.traversals.items():
            destination = traversal.destination
            if destination not in graph.levels:
                continue
            for child in graph.children(destination):
                if (child, destination) in consumed:
                    continue
                if child in occupied:
                    continue
                violations.append(
                    f"traversal of token {token!r} is not maximal: it ends at "
                    f"{destination!r} but child {child!r} is unoccupied and edge "
                    f"({child!r}, {destination!r}) is unused"
                )

        return ValidationReport(valid=not violations, violations=tuple(violations))

    # ------------------------------------------------------------------
    # Tails and extended traversals (Definition 4.3)
    # ------------------------------------------------------------------
    def tail_of(self, token: NodeId) -> Tuple[NodeId, ...]:
        """The tail of the token's traversal, per Definition 4.3.

        Starting at the destination ``v_d``, follow, as long as the current
        node passed at least one token down, the edge of the **last** token
        it passed.  Requires ``pass_history``; for hand-built solutions the
        tail is just ``(destination,)``.
        """
        traversal = self.traversals[token]
        tail: List[NodeId] = [traversal.destination]
        current = traversal.destination
        visited = {current}
        while True:
            history = self.pass_history.get(current, ())
            if not history:
                break
            _, last_child = history[-1]
            if last_child in visited:
                # Defensive: pass histories of a correct execution never
                # revisit a node because every pass moves strictly down.
                break
            tail.append(last_child)
            visited.add(last_child)
            current = last_child
        return tuple(tail)

    def extended_traversal(self, token: NodeId) -> Tuple[NodeId, ...]:
        """Concatenation of the traversal and its tail (Definition 4.3)."""
        traversal = self.traversals[token]
        tail = self.tail_of(token)
        # tail[0] == destination == traversal.path[-1]; avoid duplicating it.
        return traversal.path + tail[1:]


def solution_from_paths(
    paths: Mapping[NodeId, Sequence[NodeId]],
) -> TokenDroppingSolution:
    """Build a solution from raw token → path mappings (for tests/examples)."""
    traversals = {token: Traversal(token, path) for token, path in paths.items()}
    return TokenDroppingSolution(traversals=traversals)
