"""Token dropping on hypergraphs (Section 7.1, Theorem 7.1).

The generalisation replaces graph edges by *oriented hyperedges*: every
hyperedge ``e = {v_1, ..., v_i}`` has one distinguished endpoint, its
*head*, and the level constraint ``ℓ(head) = min ℓ(other endpoints) + 1``.
Within a hyperedge the head is the *parent* of every endpoint one level
below it (its *children* in that hyperedge).  A token can only be passed
by the head of a hyperedge to one of its children in that hyperedge, and
passing a token consumes the entire hyperedge.

The proposal strategy carries over verbatim: unoccupied nodes propose to a
parent with a token, occupied nodes pass a token to a child that made a
proposal.  Theorem 7.1: this finishes in ``O(L · S²)`` rounds where ``S``
is the maximum vertex degree.

Implementation note
-------------------
The rank-2 algorithms run as genuine LOCAL node programs
(:mod:`repro.core.token_dropping.proposal`).  In the hypergraph setting a
head and its children are not necessarily adjacent in the communication
network -- in the stable assignment application they communicate through
the customer node in the middle, which only costs a constant factor.  The
reproduction therefore executes the hypergraph proposal strategy with a
synchronous *game-round* engine: every round, all proposals and passes are
computed from information that is local to the respective node (its own
occupancy, its incident hyperedges, and the occupancy of their heads),
exactly one hop (plus the relay) away.  The engine reports game rounds,
which is what Theorem 7.1 bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.tie_break import check_tie_break
from repro.core.token_dropping.game import (
    TokenDroppingInstance,
    proposal_round_budget,
)
from repro.graphs.hypergraph import Hypergraph

NodeId = Hashable
EdgeId = Hashable


class InvalidHypergraphInstanceError(ValueError):
    """Raised when a hypergraph token dropping instance is malformed."""


class InvalidHypergraphSolutionError(ValueError):
    """Raised when a hypergraph token dropping solution breaks the rules."""


class HypergraphRoundLimitExceeded(RuntimeError):
    """The engine exceeded its game-round budget (indicates a bug)."""


@dataclass(frozen=True)
class HypergraphTokenDroppingInstance:
    """An input to the hypergraph token dropping game.

    Parameters
    ----------
    hypergraph:
        The hypergraph; every hyperedge must have rank at least 2 (a
        rank-1 hyperedge has no children and can never carry a token).
    levels:
        Level of every vertex (non-negative integers).
    heads:
        The head vertex of every hyperedge; must satisfy
        ``level(head) == min(level of the other endpoints) + 1``.
    tokens:
        Vertices initially holding a token (at most one each).
    """

    hypergraph: Hypergraph
    levels: Mapping[NodeId, int]
    heads: Mapping[EdgeId, NodeId]
    tokens: FrozenSet[NodeId]

    def __init__(
        self,
        hypergraph: Hypergraph,
        levels: Mapping[NodeId, int],
        heads: Mapping[EdgeId, NodeId],
        tokens: Iterable[NodeId],
    ) -> None:
        levels_dict = dict(levels)
        heads_dict = dict(heads)
        token_set = frozenset(tokens)

        missing_levels = set(hypergraph.vertices) - set(levels_dict)
        if missing_levels:
            raise InvalidHypergraphInstanceError(
                f"missing level for vertex/vertices {sorted(map(repr, missing_levels))}"
            )
        for vertex, level in levels_dict.items():
            if not isinstance(level, int) or level < 0:
                raise InvalidHypergraphInstanceError(
                    f"level of {vertex!r} must be a non-negative integer, got {level!r}"
                )

        for edge_id in hypergraph.hyperedges:
            members = hypergraph.members(edge_id)
            if len(members) < 2:
                raise InvalidHypergraphInstanceError(
                    f"hyperedge {edge_id!r} has rank {len(members)} < 2"
                )
            if edge_id not in heads_dict:
                raise InvalidHypergraphInstanceError(
                    f"hyperedge {edge_id!r} has no head"
                )
            head = heads_dict[edge_id]
            if head not in members:
                raise InvalidHypergraphInstanceError(
                    f"head {head!r} of hyperedge {edge_id!r} is not one of its "
                    "endpoints"
                )
            others = [levels_dict[v] for v in members if v != head]
            if levels_dict[head] != min(others) + 1:
                raise InvalidHypergraphInstanceError(
                    f"hyperedge {edge_id!r}: level(head)={levels_dict[head]} must "
                    f"equal min(level of other endpoints)+1={min(others) + 1}"
                )
        extra_heads = set(heads_dict) - set(hypergraph.hyperedges)
        if extra_heads:
            raise InvalidHypergraphInstanceError(
                f"heads given for unknown hyperedge(s) {sorted(map(repr, extra_heads))}"
            )
        unknown_tokens = token_set - set(hypergraph.vertices)
        if unknown_tokens:
            raise InvalidHypergraphInstanceError(
                "token(s) on unknown vertex/vertices "
                f"{sorted(map(repr, unknown_tokens))}"
            )

        object.__setattr__(self, "hypergraph", hypergraph)
        object.__setattr__(self, "levels", levels_dict)
        object.__setattr__(self, "heads", heads_dict)
        object.__setattr__(self, "tokens", token_set)

    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """L, the maximum vertex level."""
        return max(self.levels.values(), default=0)

    @property
    def max_vertex_degree(self) -> int:
        """S, the maximum number of hyperedges incident to one vertex."""
        return self.hypergraph.max_vertex_degree()

    @property
    def max_rank(self) -> int:
        """C, the maximum hyperedge rank."""
        return self.hypergraph.max_rank()

    def children_in_edge(self, vertex: NodeId, edge_id: EdgeId) -> Tuple[NodeId, ...]:
        """Children of ``vertex`` in ``edge_id`` (empty unless vertex is the head)."""
        if self.heads[edge_id] != vertex:
            return ()
        level = self.levels[vertex]
        return tuple(
            sorted(
                (
                    u
                    for u in self.hypergraph.members(edge_id)
                    if u != vertex and self.levels[u] == level - 1
                ),
                key=repr,
            )
        )

    def parent_in_edge(self, vertex: NodeId, edge_id: EdgeId) -> Optional[NodeId]:
        """The parent of ``vertex`` within ``edge_id`` (None if there is none)."""
        head = self.heads[edge_id]
        if head == vertex:
            return None
        if self.levels[head] == self.levels[vertex] + 1:
            return head
        return None

    def theoretical_round_bound(self, constant: int = 8) -> int:
        """A concrete ``O(L · S²)`` game-round budget (Theorem 7.1)."""
        return proposal_round_budget(self.height, self.max_vertex_degree, constant)

    # ------------------------------------------------------------------
    @classmethod
    def from_rank2_instance(
        cls, instance: TokenDroppingInstance
    ) -> "HypergraphTokenDroppingInstance":
        """View an ordinary (rank-2) token dropping instance as a hypergraph game.

        Every (child, parent) edge becomes a rank-2 hyperedge with the
        parent as its head.  Used for cross-validation between the graph
        and hypergraph engines.
        """
        graph = instance.graph
        hyperedges = {}
        heads = {}
        for child, parent in sorted(graph.edges, key=repr):
            edge_id = ("e", child, parent)
            hyperedges[edge_id] = (child, parent)
            heads[edge_id] = parent
        hypergraph = Hypergraph(vertices=graph.nodes, hyperedges=hyperedges)
        return cls(
            hypergraph=hypergraph,
            levels=dict(graph.levels),
            heads=heads,
            tokens=instance.tokens,
        )


@dataclass(frozen=True)
class HyperTraversal:
    """One token's path through the hypergraph game.

    ``path[i+1]`` was reached from ``path[i]`` through ``hyperedges[i]``.
    """

    token: NodeId
    path: Tuple[NodeId, ...]
    hyperedges: Tuple[EdgeId, ...]

    def __post_init__(self) -> None:
        if not self.path:
            raise InvalidHypergraphSolutionError(
                f"traversal of token {self.token!r} has an empty path"
            )
        if len(self.hyperedges) != len(self.path) - 1:
            raise InvalidHypergraphSolutionError(
                f"traversal of token {self.token!r} has {len(self.path)} nodes but "
                f"{len(self.hyperedges)} hyperedges"
            )

    @property
    def source(self) -> NodeId:
        return self.path[0]

    @property
    def destination(self) -> NodeId:
        return self.path[-1]

    @property
    def length(self) -> int:
        return len(self.path) - 1


@dataclass(frozen=True)
class HypergraphTokenDroppingSolution:
    """Solution of a hypergraph token dropping game."""

    traversals: Mapping[NodeId, HyperTraversal]
    game_rounds: Optional[int] = None

    @property
    def destinations(self) -> FrozenSet[NodeId]:
        return frozenset(t.destination for t in self.traversals.values())

    def total_moves(self) -> int:
        return sum(t.length for t in self.traversals.values())

    # ------------------------------------------------------------------
    def validate(self, instance: HypergraphTokenDroppingInstance) -> List[str]:
        """Return the list of rule violations (empty = valid)."""
        violations: List[str] = []
        if set(self.traversals) != set(instance.tokens):
            violations.append(
                "traversals do not cover exactly the initial tokens: "
                f"{sorted(map(repr, set(self.traversals) ^ set(instance.tokens)))}"
            )

        # Path validity + rule 1 (hyperedge-disjointness).
        used: Dict[EdgeId, NodeId] = {}
        for token, traversal in self.traversals.items():
            if traversal.source != token:
                violations.append(
                    f"traversal of {token!r} starts at {traversal.source!r}"
                )
            for i, edge_id in enumerate(traversal.hyperedges):
                parent, child = traversal.path[i], traversal.path[i + 1]
                members = instance.hypergraph.members(edge_id)
                if parent not in members or child not in members:
                    violations.append(
                        f"traversal of {token!r}: step {parent!r} -> {child!r} is not "
                        f"inside hyperedge {edge_id!r}"
                    )
                    continue
                if instance.heads[edge_id] != parent:
                    violations.append(
                        f"traversal of {token!r}: {parent!r} is not the head of "
                        f"{edge_id!r}"
                    )
                if instance.levels[child] != instance.levels[parent] - 1:
                    violations.append(
                        f"traversal of {token!r}: step {parent!r} -> {child!r} does "
                        "not go down exactly one level"
                    )
                if edge_id in used:
                    violations.append(
                        f"hyperedge {edge_id!r} used by {used[edge_id]!r} and {token!r}"
                    )
                else:
                    used[edge_id] = token

        # Rule 2: unique destinations.
        seen: Dict[NodeId, NodeId] = {}
        for token, traversal in self.traversals.items():
            if traversal.destination in seen:
                violations.append(
                    f"tokens {seen[traversal.destination]!r} and {token!r} share "
                    f"destination {traversal.destination!r}"
                )
            else:
                seen[traversal.destination] = token

        # Rule 3: maximality.
        occupied = set(seen)
        consumed = set(used)
        for destination in occupied:
            for edge_id in instance.hypergraph.edges_at(destination):
                if instance.heads[edge_id] != destination:
                    continue
                if edge_id in consumed:
                    continue
                for child in instance.children_in_edge(destination, edge_id):
                    if child not in occupied:
                        violations.append(
                            f"not maximal: destination {destination!r} could still "
                            f"pass its token to {child!r} through hyperedge "
                            f"{edge_id!r}"
                        )
        return violations


def run_hypergraph_proposal(
    instance: HypergraphTokenDroppingInstance,
    *,
    tie_break: str = "min",
    seed: int = 0,
    max_rounds: Optional[int] = None,
) -> HypergraphTokenDroppingSolution:
    """Run the hypergraph proposal strategy (Theorem 7.1) to completion.

    Every game round, each unoccupied vertex with at least one occupied
    parent (over a still-unconsumed hyperedge) proposes to one such parent;
    each occupied vertex with proposals passes its token to one proposer,
    consuming that hyperedge.  Stops when no token can move.

    Raises
    ------
    HypergraphRoundLimitExceeded
        If the game is not stuck after ``max_rounds`` rounds (defaults to
        the Theorem 7.1 budget, so the bound is a checked invariant).
    """
    check_tie_break(tie_break)
    if max_rounds is None:
        max_rounds = instance.theoretical_round_bound()
    rng = random.Random(seed)

    def choose(options: List, key=repr):
        ordered = sorted(options, key=key)
        if tie_break == "min":
            return ordered[0]
        if tie_break == "max":
            return ordered[-1]
        return ordered[rng.randrange(len(ordered))]  # "random"

    occupant: Dict[NodeId, NodeId] = {v: v for v in instance.tokens}
    live: Set[EdgeId] = set(instance.hypergraph.hyperedges)
    paths: Dict[NodeId, List[NodeId]] = {t: [t] for t in instance.tokens}
    path_edges: Dict[NodeId, List[EdgeId]] = {t: [] for t in instance.tokens}

    rounds = 0
    while True:
        # Collect proposals: unoccupied vertex -> one occupied parent.
        proposals: Dict[NodeId, List[Tuple[NodeId, EdgeId]]] = {}
        for vertex in instance.hypergraph.vertices:
            if vertex in occupant:
                continue
            options: List[Tuple[NodeId, EdgeId]] = []
            for edge_id in instance.hypergraph.edges_at(vertex):
                if edge_id not in live:
                    continue
                parent = instance.parent_in_edge(vertex, edge_id)
                if parent is not None and parent in occupant:
                    options.append((parent, edge_id))
            if options:
                parent, edge_id = choose(options)
                proposals.setdefault(parent, []).append((vertex, edge_id))

        if not proposals:
            break
        rounds += 1
        if rounds > max_rounds:
            raise HypergraphRoundLimitExceeded(
                f"hypergraph proposal engine exceeded {max_rounds} game rounds"
            )

        for parent, requests in proposals.items():
            if parent not in occupant:
                continue  # already passed its token earlier this round? cannot happen
            child, edge_id = choose(requests)
            token = occupant.pop(parent)
            occupant[child] = token
            live.discard(edge_id)
            paths[token].append(child)
            path_edges[token].append(edge_id)

    traversals = {
        token: HyperTraversal(token, tuple(paths[token]), tuple(path_edges[token]))
        for token in instance.tokens
    }
    return HypergraphTokenDroppingSolution(traversals=traversals, game_rounds=rounds)
