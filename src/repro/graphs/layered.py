"""Layered DAGs: the structural input of the token dropping game.

Section 4 of the paper defines the game on a directed graph without
directed cycles in which every node ``v`` has a level ``ℓ(v) ≤ L`` and a
directed edge ``(u, v)`` (``v`` is the *parent* of ``u``) requires
``ℓ(v) = ℓ(u) + 1``.  :class:`LayeredGraph` captures exactly this shape
and validates it at construction time.

The class stores edges in the *parent direction*: ``parents(u)`` are the
nodes one level above ``u`` that ``u`` is connected to (i.e. the nodes a
token at a parent could be dropped *from*), and ``children(v)`` are the
nodes one level below that ``v`` could pass a token *to*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Set, Tuple

NodeId = Hashable
#: A directed edge (child, parent): the token may move parent -> child.
DirectedEdge = Tuple[NodeId, NodeId]


class LayeredGraphError(ValueError):
    """Raised when a layered graph violates the level constraints."""


@dataclass(frozen=True)
class LayeredGraph:
    """An immutable layered DAG.

    Parameters
    ----------
    levels:
        Mapping from node identifier to its level, a non-negative integer.
    edges:
        Iterable of ``(child, parent)`` pairs with
        ``levels[parent] == levels[child] + 1``.  The orientation in the
        token dropping game always points "down", so storing the pair as
        (child, parent) makes the allowed token move explicit:
        ``parent -> child``.

    Notes
    -----
    The paper also allows ``ℓ(parent) > ℓ(child) + 1`` (footnote 1); for
    clarity the reproduction follows the main-text convention of adjacent
    levels.  All algorithms only rely on "parents are strictly above".
    """

    levels: Mapping[NodeId, int]
    edges: FrozenSet[DirectedEdge]
    _parents: Dict[NodeId, FrozenSet[NodeId]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _children: Dict[NodeId, FrozenSet[NodeId]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __init__(
        self,
        levels: Mapping[NodeId, int],
        edges: Iterable[DirectedEdge] = (),
    ) -> None:
        levels_dict: Dict[NodeId, int] = dict(levels)
        for node, level in levels_dict.items():
            if not isinstance(level, int) or level < 0:
                raise LayeredGraphError(
                    f"level of node {node!r} must be a non-negative integer, "
                    f"got {level!r}"
                )

        edge_set: Set[DirectedEdge] = set()
        parents: Dict[NodeId, Set[NodeId]] = {node: set() for node in levels_dict}
        children: Dict[NodeId, Set[NodeId]] = {node: set() for node in levels_dict}
        for edge in edges:
            if len(edge) != 2:
                raise LayeredGraphError(f"edge {edge!r} is not a (child, parent) pair")
            child, parent = edge
            if child not in levels_dict or parent not in levels_dict:
                raise LayeredGraphError(
                    f"edge ({child!r}, {parent!r}) references a node without a level"
                )
            if child == parent:
                raise LayeredGraphError(f"self-loop on {child!r} is not allowed")
            if levels_dict[parent] != levels_dict[child] + 1:
                raise LayeredGraphError(
                    f"edge ({child!r}, {parent!r}) violates the level constraint: "
                    f"level({parent!r})={levels_dict[parent]} must equal "
                    f"level({child!r})+1={levels_dict[child] + 1}"
                )
            if (child, parent) in edge_set:
                raise LayeredGraphError(f"duplicate edge ({child!r}, {parent!r})")
            edge_set.add((child, parent))
            parents[child].add(parent)
            children[parent].add(child)

        object.__setattr__(self, "levels", dict(levels_dict))
        object.__setattr__(self, "edges", frozenset(edge_set))
        object.__setattr__(
            self, "_parents", {n: frozenset(p) for n, p in parents.items()}
        )
        object.__setattr__(
            self, "_children", {n: frozenset(c) for n, c in children.items()}
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """All node identifiers in a deterministic order."""
        return tuple(sorted(self.levels, key=repr))

    def __len__(self) -> int:
        return len(self.levels)

    def __contains__(self, node: NodeId) -> bool:
        return node in self.levels

    def level(self, node: NodeId) -> int:
        """Return the level of ``node``."""
        return self.levels[node]

    def height(self) -> int:
        """Return L, the maximum level present in the graph (0 if empty)."""
        if not self.levels:
            return 0
        return max(self.levels.values())

    def parents(self, node: NodeId) -> FrozenSet[NodeId]:
        """Nodes one level above ``node`` connected to it."""
        return self._parents[node]

    def children(self, node: NodeId) -> FrozenSet[NodeId]:
        """Nodes one level below ``node`` connected to it."""
        return self._children[node]

    def degree(self, node: NodeId) -> int:
        """Total degree (parents + children) of ``node``."""
        return len(self._parents[node]) + len(self._children[node])

    def max_degree(self) -> int:
        """Return Δ over the underlying undirected graph."""
        if not self.levels:
            return 0
        return max(self.degree(node) for node in self.levels)

    def num_edges(self) -> int:
        """Return the number of (directed) edges."""
        return len(self.edges)

    def nodes_at_level(self, level: int) -> Tuple[NodeId, ...]:
        """Nodes whose level equals ``level``, in deterministic order."""
        return tuple(
            sorted((n for n, l in self.levels.items() if l == level), key=repr)
        )

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def as_adjacency(self) -> Dict[NodeId, List[NodeId]]:
        """Undirected adjacency lists (used to build the LOCAL network)."""
        adjacency: Dict[NodeId, List[NodeId]] = {node: [] for node in self.levels}
        for child, parent in self.edges:
            adjacency[child].append(parent)
            adjacency[parent].append(child)
        return adjacency

    def restrict_to(self, nodes: Iterable[NodeId]) -> "LayeredGraph":
        """Return the induced sub-layered-graph on ``nodes``."""
        keep = set(nodes)
        missing = keep - set(self.levels)
        if missing:
            raise LayeredGraphError(f"unknown node(s): {sorted(map(repr, missing))}")
        return LayeredGraph(
            levels={n: self.levels[n] for n in keep},
            edges=[(c, p) for (c, p) in self.edges if c in keep and p in keep],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LayeredGraph(n={len(self)}, m={self.num_edges()}, "
            f"height={self.height()}, max_degree={self.max_degree()})"
        )
