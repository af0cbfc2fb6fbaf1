"""Communication topology for the LOCAL-model simulator.

A :class:`Network` is an immutable undirected simple graph together with
per-node *local inputs*.  It is the object handed to the
:class:`~repro.local_model.runner.Runner`, which instantiates one node
state machine per vertex.

The class intentionally does not depend on :mod:`networkx`; it accepts any
iterable of edges (including a ``networkx.Graph`` via :meth:`from_networkx`)
and stores plain adjacency sets, which keeps the hot simulation loop free
of external-library overhead.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, Iterable, Iterator, Mapping, Tuple

from repro.local_model.errors import TopologyError

NodeId = Hashable
Edge = Tuple[NodeId, NodeId]


class Network:
    """An undirected simple communication graph with local inputs.

    Parameters
    ----------
    nodes:
        Iterable of node identifiers.  Identifiers must be hashable and
        unique.  Nodes mentioned only in ``edges`` are added automatically.
    edges:
        Iterable of 2-tuples ``(u, v)``.  Self-loops and duplicate edges
        are rejected: the LOCAL model is defined on simple graphs and the
        paper's round bounds assume simple graphs.
    local_inputs:
        Optional mapping from node identifier to an arbitrary local input
        object (e.g. "this node initially holds a token", "this node is a
        server").  Nodes without an entry receive ``None``.
    """

    # ``_compact_cache`` is left unset until a compact kernel memoizes the
    # dense form it derives from this (immutable) network.
    __slots__ = ("_adjacency", "_local_inputs", "_edges", "_compact_cache")

    def __init__(
        self,
        nodes: Iterable[NodeId] = (),
        edges: Iterable[Edge] = (),
        local_inputs: Mapping[NodeId, Any] | None = None,
    ) -> None:
        adjacency: Dict[NodeId, set] = {}

        def ensure(node: NodeId) -> None:
            try:
                hash(node)
            except TypeError as exc:  # pragma: no cover - defensive
                raise TopologyError(
                    f"node identifier {node!r} is not hashable"
                ) from exc
            adjacency.setdefault(node, set())

        for node in nodes:
            ensure(node)

        edge_set: set = set()
        for edge in edges:
            if len(edge) != 2:
                raise TopologyError(f"edge {edge!r} is not a 2-tuple")
            u, v = edge
            if u == v:
                raise TopologyError(f"self-loop on node {u!r} is not allowed")
            ensure(u)
            ensure(v)
            key = frozenset((u, v))
            if key in edge_set:
                raise TopologyError(f"duplicate edge {{{u!r}, {v!r}}}")
            edge_set.add(key)
            adjacency[u].add(v)
            adjacency[v].add(u)

        self._adjacency: Dict[NodeId, FrozenSet[NodeId]] = {
            node: frozenset(neighbors) for node, neighbors in adjacency.items()
        }
        self._edges: FrozenSet[FrozenSet[NodeId]] = frozenset(edge_set)
        inputs = dict(local_inputs or {})
        unknown = set(inputs) - set(self._adjacency)
        if unknown:
            raise TopologyError(
                f"local inputs given for unknown node(s): {sorted(map(repr, unknown))}"
            )
        self._local_inputs: Dict[NodeId, Any] = inputs

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_networkx(
        cls, graph: Any, local_inputs: Mapping[NodeId, Any] | None = None
    ) -> "Network":
        """Build a network from a ``networkx.Graph``-like object.

        Only the node set and edge set are used; graph/node/edge attributes
        are ignored (pass explicit ``local_inputs`` instead).
        """
        return cls(nodes=graph.nodes(), edges=graph.edges(), local_inputs=local_inputs)

    @classmethod
    def from_edges(
        cls, edges: Iterable[Edge], local_inputs: Mapping[NodeId, Any] | None = None
    ) -> "Network":
        """Build a network whose node set is implied by ``edges``."""
        return cls(nodes=(), edges=edges, local_inputs=local_inputs)

    @classmethod
    def from_validated_adjacency(
        cls,
        adjacency: Mapping[NodeId, FrozenSet[NodeId]],
        edges: Iterable[Edge],
        local_inputs: Mapping[NodeId, Any] | None = None,
    ) -> "Network":
        """Build a network from pre-validated adjacency data (trusted path).

        Skips the per-edge simple-graph validation of ``__init__`` — the
        caller guarantees ``adjacency`` is symmetric, loop-free, and
        consistent with ``edges``.  Structures that already maintain these
        invariants (:class:`~repro.graphs.layered.LayeredGraph` via
        :meth:`TokenDroppingInstance.to_network`) use this to convert in a
        single O(n + m) pass instead of re-deriving adjacency sets edge by
        edge.
        """
        network = cls.__new__(cls)
        network._adjacency = {
            node: (
                neighbors
                if isinstance(neighbors, frozenset)
                else frozenset(neighbors)
            )
            for node, neighbors in adjacency.items()
        }
        network._edges = frozenset(frozenset(edge) for edge in edges)
        inputs = dict(local_inputs or {})
        unknown = set(inputs) - set(network._adjacency)
        if unknown:
            raise TopologyError(
                f"local inputs given for unknown node(s): {sorted(map(repr, unknown))}"
            )
        network._local_inputs = inputs
        return network

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> Tuple[NodeId, ...]:
        """All node identifiers in a deterministic (sorted-by-repr) order."""
        try:
            return tuple(sorted(self._adjacency))
        except TypeError:
            return tuple(sorted(self._adjacency, key=repr))

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.node_ids)

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._adjacency

    def neighbors(self, node: NodeId) -> FrozenSet[NodeId]:
        """Return the neighbour set of ``node``."""
        return self._adjacency[node]

    def degree(self, node: NodeId) -> int:
        """Return the degree of ``node``."""
        return len(self._adjacency[node])

    def max_degree(self) -> int:
        """Return Δ, the maximum degree of the network (0 for empty graphs)."""
        if not self._adjacency:
            return 0
        return max(len(n) for n in self._adjacency.values())

    def num_edges(self) -> int:
        """Return the number of undirected edges."""
        return len(self._edges)

    def edges(self) -> Tuple[Tuple[NodeId, NodeId], ...]:
        """Return all edges as ordered 2-tuples (deterministic order)."""
        out = []
        for edge in self._edges:
            u, v = tuple(edge)
            try:
                lo, hi = (u, v) if u <= v else (v, u)
            except TypeError:
                lo, hi = sorted((u, v), key=repr)
            out.append((lo, hi))
        return tuple(sorted(out, key=repr))

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Return True if ``{u, v}`` is an edge of the network."""
        return v in self._adjacency.get(u, frozenset())

    def local_input(self, node: NodeId) -> Any:
        """Return the local input of ``node`` (``None`` if not set)."""
        return self._local_inputs.get(node)

    def local_inputs(self) -> Dict[NodeId, Any]:
        """Return a copy of the full local-input mapping."""
        return dict(self._local_inputs)

    def with_local_inputs(self, local_inputs: Mapping[NodeId, Any]) -> "Network":
        """Return a copy of this network with replaced local inputs."""
        new = Network.__new__(Network)
        new._adjacency = self._adjacency
        new._edges = self._edges
        merged = dict(local_inputs)
        unknown = set(merged) - set(self._adjacency)
        if unknown:
            raise TopologyError(
                f"local inputs given for unknown node(s): {sorted(map(repr, unknown))}"
            )
        new._local_inputs = merged
        return new

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(n={len(self)}, m={self.num_edges()}, "
            f"max_degree={self.max_degree()})"
        )
