"""The token dropping game: instances and their validation.

Section 4 of the paper defines the game as follows.  The input is a
layered DAG together with a set of tokens, at most one per node.  A token
may move from its node to any *child* (a neighbour one level below) along
an edge, and every edge may be used at most once over the whole game.  The
single player's goal is to reach a configuration in which no token can be
moved any more ("the only goal of this single player game is to get
stuck").

:class:`TokenDroppingInstance` bundles the layered graph with the initial
token placement and provides the conversion to a
:class:`~repro.local_model.network.Network` that the distributed
algorithms run on.  Following Section 3 and the remark in Section 4, the
*local input* of a node contains only what the paper allows it to know
initially: whether it holds a token and which incident edges point to
parents vs. children.  Levels are intentionally **not** part of the
default local input (nodes "are not aware of their level"); algorithms
that legitimately need layer indices (the height-3 algorithm of
Theorem 4.7, where the layering is promised) request them explicitly via
``include_levels=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, Iterable

from repro.graphs.layered import LayeredGraph
from repro.local_model.network import Network

NodeId = Hashable

#: Local-input keys exposed to distributed token dropping algorithms.
LOCAL_HAS_TOKEN = "has_token"
LOCAL_PARENTS = "parents"
LOCAL_CHILDREN = "children"
LOCAL_LEVEL = "level"


def proposal_round_budget(height: int, max_degree: int, constant: int = 8) -> int:
    """The game-round budget ``constant · (L + 1) · (Δ + 1)² + constant``.

    Theorem 4.1 states the proposal algorithm finishes in O(L·Δ²) game
    rounds, and Theorem 7.1 its hypergraph form in O(L·S²) with S the
    maximum vertex degree.  Every solver of either game uses this as a
    hard ``max_rounds`` budget, so that the asymptotic bound is itself a
    checked invariant (the ``+1`` terms keep the budget positive for
    degenerate games).
    """
    return constant * (height + 1) * (max_degree + 1) ** 2 + constant


class InvalidInstanceError(ValueError):
    """Raised when a token dropping instance violates the game's preconditions."""


@dataclass(frozen=True)
class TokenDroppingInstance:
    """An input to the token dropping game.

    Parameters
    ----------
    graph:
        The layered DAG (levels + child→parent edges).
    tokens:
        The set of nodes that initially hold a token.  Being a set, the
        "at most one token per node" precondition holds by construction;
        membership in the graph is validated.
    """

    graph: LayeredGraph
    tokens: FrozenSet[NodeId]

    def __init__(self, graph: LayeredGraph, tokens: Iterable[NodeId]) -> None:
        token_set = frozenset(tokens)
        unknown = token_set - set(graph.levels)
        if unknown:
            raise InvalidInstanceError(
                f"token(s) placed on unknown node(s): {sorted(map(repr, unknown))}"
            )
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "tokens", token_set)
        # Memoized to_network results (instances are immutable, so the
        # conversion is deterministic); keyed by include_levels.
        object.__setattr__(self, "_networks", {})

    # ------------------------------------------------------------------
    # Instances are immutable, so L and Δ are computed once.
    @cached_property
    def height(self) -> int:
        """L, the height of the game (the maximum level)."""
        return self.graph.height()

    @cached_property
    def max_degree(self) -> int:
        """Δ, the maximum degree of the underlying graph."""
        return self.graph.max_degree()

    @property
    def num_tokens(self) -> int:
        """Number of tokens initially placed."""
        return len(self.tokens)

    def has_token(self, node: NodeId) -> bool:
        """True if ``node`` initially holds a token."""
        return node in self.tokens

    def theoretical_round_bound(self, constant: int = 8) -> int:
        """The Theorem 4.1 game-round budget (:func:`proposal_round_budget`)."""
        return proposal_round_budget(self.height, self.max_degree, constant)

    # ------------------------------------------------------------------
    def to_network(self, include_levels: bool = False) -> Network:
        """Build the LOCAL-model communication network for this instance.

        Every game node becomes a network node; every (child, parent) game
        edge becomes an undirected communication edge.  The local input of
        a node is a dict with keys

        * ``"has_token"`` -- whether the node starts with a token,
        * ``"parents"`` -- frozenset of neighbours one level above,
        * ``"children"`` -- frozenset of neighbours one level below,
        * ``"level"`` -- only when ``include_levels=True``.

        The conversion is a single O(n + m) pass: the per-node parent and
        child sets are the ones :class:`~repro.graphs.layered.LayeredGraph`
        precomputed at construction, the undirected adjacency is their
        union, and the network is built through the trusted
        :meth:`~repro.local_model.network.Network.from_validated_adjacency`
        constructor (the layered graph already enforced simplicity), so no
        part of the edge list is re-scanned per node or re-validated.
        The result is memoized: instances are immutable, so repeated
        executions on the same game (e.g. kernel-vs-reference runs) share
        one network object — and thereby its cached dense game.
        """
        cached = self._networks.get(include_levels)
        if cached is not None:
            return cached
        graph = self.graph
        levels = graph.levels
        tokens = self.tokens
        adjacency: Dict[NodeId, FrozenSet[NodeId]] = {}
        local_inputs: Dict[NodeId, Dict[str, object]] = {}
        for node in levels:
            parents = graph.parents(node)
            children = graph.children(node)
            adjacency[node] = parents | children
            entry: Dict[str, object] = {
                LOCAL_HAS_TOKEN: node in tokens,
                LOCAL_PARENTS: parents,
                LOCAL_CHILDREN: children,
            }
            if include_levels:
                entry[LOCAL_LEVEL] = levels[node]
            local_inputs[node] = entry
        network = Network.from_validated_adjacency(
            adjacency, graph.edges, local_inputs
        )
        self._networks[include_levels] = network
        return network

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A short human-readable description used by examples."""
        return (
            f"token dropping game: {len(self.graph)} nodes, "
            f"{self.graph.num_edges()} edges, height L={self.height}, "
            f"Δ={self.max_degree}, {self.num_tokens} tokens"
        )


def random_token_placement(
    graph: LayeredGraph,
    fraction: float,
    rng,
    exclude_bottom_level: bool = False,
) -> FrozenSet[NodeId]:
    """Place tokens on a random ``fraction`` of the nodes.

    Parameters
    ----------
    graph:
        The layered graph to place tokens on.
    fraction:
        Expected fraction of nodes holding a token, in ``[0, 1]``.
    rng:
        A ``random.Random`` instance (explicit for reproducibility).
    exclude_bottom_level:
        When True, level-0 nodes never receive a token, which produces
        "interesting" games where most tokens can actually move.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    chosen = []
    for node in graph.nodes:
        if exclude_bottom_level and graph.level(node) == 0:
            continue
        if rng.random() < fraction:
            chosen.append(node)
    return frozenset(chosen)


def figure2_instance() -> TokenDroppingInstance:
    """The 5-level instance of Figure 2 of the paper (reconstructed).

    The exact drawing is not machine-readable, so this is a faithful
    re-creation of its *shape*: five levels (0--4), a sparse layered graph,
    and tokens on a subset of the upper-level nodes.  It is used by the
    quickstart example and by tests as a small, fixed, non-trivial game.
    """
    levels: Dict[NodeId, int] = {}
    level_sizes = [4, 4, 4, 3, 2]
    for level, size in enumerate(level_sizes):
        for index in range(size):
            levels[(level, index)] = level
    edges = [
        ((0, 0), (1, 0)),
        ((0, 1), (1, 0)),
        ((0, 1), (1, 1)),
        ((0, 2), (1, 2)),
        ((0, 3), (1, 2)),
        ((0, 3), (1, 3)),
        ((1, 0), (2, 0)),
        ((1, 1), (2, 0)),
        ((1, 1), (2, 1)),
        ((1, 2), (2, 2)),
        ((1, 3), (2, 2)),
        ((1, 3), (2, 3)),
        ((2, 0), (3, 0)),
        ((2, 1), (3, 0)),
        ((2, 1), (3, 1)),
        ((2, 2), (3, 1)),
        ((2, 3), (3, 2)),
        ((3, 0), (4, 0)),
        ((3, 1), (4, 0)),
        ((3, 1), (4, 1)),
        ((3, 2), (4, 1)),
    ]
    graph = LayeredGraph(levels=levels, edges=edges)
    tokens = frozenset(
        {
            (1, 1),
            (2, 0),
            (2, 2),
            (3, 0),
            (3, 1),
            (3, 2),
            (4, 0),
            (4, 1),
        }
    )
    return TokenDroppingInstance(graph=graph, tokens=tokens)
