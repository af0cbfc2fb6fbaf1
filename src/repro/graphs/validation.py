"""Structural validation utilities for generated instances.

These checks back two kinds of uses:

* tests assert that generators produce what they promise (regularity,
  degree caps, girth);
* the lower-bound experiments verify the *premises* of the paper's
  indistinguishability arguments (e.g. "Δ-regular with girth ≥ Δ + 1",
  "perfect Δ-ary tree") before measuring anything on the instance.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional

import networkx as nx

NodeId = Hashable


class GraphValidationError(ValueError):
    """Raised when a graph fails a structural check."""


def check_max_degree(graph: nx.Graph, max_degree: int) -> None:
    """Assert that every node has degree at most ``max_degree``."""
    offenders = [(n, d) for n, d in graph.degree() if d > max_degree]
    if offenders:
        raise GraphValidationError(
            f"{len(offenders)} node(s) exceed max degree {max_degree}; "
            f"examples: {offenders[:5]}"
        )


def is_regular(graph: nx.Graph, degree: Optional[int] = None) -> bool:
    """Return True if all nodes share one degree (optionally a specific one)."""
    degrees = {d for _, d in graph.degree()}
    if not degrees:
        return True
    if len(degrees) != 1:
        return False
    if degree is not None:
        return degrees == {degree}
    return True


def graph_girth(graph: nx.Graph, cap: Optional[int] = None) -> float:
    """Return the girth (length of the shortest cycle), or ``inf`` for forests.

    A breadth-first search from every node; with ``cap`` given, the search
    stops once it is certain the girth is at least ``cap`` (useful when we
    only need to certify "girth ≥ g").
    """
    best = math.inf
    for source in graph.nodes():
        depth: Dict[NodeId, int] = {source: 0}
        parent: Dict[NodeId, Optional[NodeId]] = {source: None}
        queue = [source]
        while queue:
            current = queue.pop(0)
            limit = best if cap is None else min(best, cap)
            if 2 * depth[current] >= limit:
                continue
            for neighbor in graph.neighbors(current):
                if neighbor == parent[current]:
                    continue
                if neighbor in depth:
                    cycle_len = depth[current] + depth[neighbor] + 1
                    best = min(best, cycle_len)
                else:
                    depth[neighbor] = depth[current] + 1
                    parent[neighbor] = current
                    queue.append(neighbor)
    if cap is not None and best >= cap:
        return best if best != math.inf else math.inf
    return best


def check_girth_at_least(graph: nx.Graph, girth: int) -> None:
    """Assert that the graph has girth at least ``girth``."""
    actual = graph_girth(graph, cap=girth)
    if actual < girth:
        raise GraphValidationError(
            f"graph girth {actual} is below the required {girth}"
        )


def check_is_tree(graph: nx.Graph) -> None:
    """Assert that the graph is a tree (connected and acyclic)."""
    if graph.number_of_nodes() == 0:
        raise GraphValidationError("empty graph is not a tree")
    if not nx.is_tree(graph):
        raise GraphValidationError("graph is not a tree")


def tree_heights(graph: nx.Graph) -> Dict[NodeId, int]:
    """Heights h(v) = distance to the closest leaf, for every node of a tree.

    Matches the paper's definition in Section 6 (leaves have height 0).
    Runs a multi-source BFS from all leaves.
    """
    check_is_tree(graph)
    if graph.number_of_nodes() == 1:
        only = next(iter(graph.nodes()))
        return {only: 0}
    leaves = [n for n in graph.nodes() if graph.degree(n) == 1]
    heights: Dict[NodeId, int] = {leaf: 0 for leaf in leaves}
    frontier = list(leaves)
    while frontier:
        next_frontier = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in heights:
                    heights[neighbor] = heights[node] + 1
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return heights


def check_perfect_dary_tree(graph: nx.Graph, degree: int, root: NodeId) -> int:
    """Verify a perfect d-ary tree (non-leaves have degree d, leaves equal depth).

    Returns the common leaf depth.  Raises :class:`GraphValidationError`
    on any violation.
    """
    check_is_tree(graph)
    depths = nx.single_source_shortest_path_length(graph, root)
    leaf_depths = {
        d for node, d in depths.items() if graph.degree(node) <= 1 and node != root
    }
    if graph.number_of_nodes() == 1:
        return 0
    if len(leaf_depths) != 1:
        raise GraphValidationError(
            f"leaves are at multiple depths {sorted(leaf_depths)}; tree is not perfect"
        )
    depth = leaf_depths.pop()
    for node in graph.nodes():
        node_depth = depths[node]
        if node_depth == depth:
            continue  # a leaf
        if graph.degree(node) != degree:
            raise GraphValidationError(
                f"non-leaf node {node!r} has degree {graph.degree(node)}, "
                f"expected {degree}"
            )
    return depth
