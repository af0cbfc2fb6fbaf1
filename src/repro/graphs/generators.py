"""Reproducible graph generators for experiments and tests.

Every generator takes an explicit ``seed`` (or ``rng``) so that sweeps in
the benchmark harness are repeatable.  Generators return either

* a :class:`networkx.Graph` for plain undirected topologies (orientation
  experiments, lower-bound constructions),
* a :class:`~repro.graphs.layered.LayeredGraph` for token dropping
  instances, or
* a :class:`~repro.graphs.bipartite.CustomerServerGraph` for assignment
  and semi-matching workloads.

The instance families mirror those used in the paper's arguments:
d-regular graphs and perfect d-ary trees (Section 6), bipartite
maximal-matching-style instances (Theorems 4.6 and 7.4), and random
layered DAGs exercising the Theorem 4.1 bound.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

import networkx as nx

from repro.graphs.bipartite import CustomerServerGraph
from repro.graphs.compact import CompactBipartite
from repro.graphs.layered import LayeredGraph

NodeId = Hashable


def _make_rng(seed: Optional[int | random.Random]) -> random.Random:
    """Return a :class:`random.Random` from a seed or pass one through."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


# ----------------------------------------------------------------------
# Plain undirected topologies
# ----------------------------------------------------------------------
def path_graph(n: int) -> nx.Graph:
    """A path on ``n`` nodes labelled ``0 .. n-1`` (Δ = 2)."""
    if n < 1:
        raise ValueError(f"path needs at least one node, got n={n}")
    return nx.path_graph(n)


def cycle_graph(n: int) -> nx.Graph:
    """A cycle on ``n >= 3`` nodes (2-regular)."""
    if n < 3:
        raise ValueError(f"cycle needs at least three nodes, got n={n}")
    return nx.cycle_graph(n)


def star_graph(leaves: int) -> nx.Graph:
    """A star with one centre (node 0) and ``leaves`` leaves (Δ = leaves)."""
    if leaves < 1:
        raise ValueError(f"star needs at least one leaf, got {leaves}")
    return nx.star_graph(leaves)


def caterpillar_graph(spine: int, legs_per_node: int) -> nx.Graph:
    """A caterpillar: a path of length ``spine`` with ``legs_per_node`` leaves each.

    Caterpillars produce skewed load-balancing instances: spine nodes are
    natural high-load servers while leaves force local decisions.
    """
    if spine < 1:
        raise ValueError(f"spine must have at least one node, got {spine}")
    if legs_per_node < 0:
        raise ValueError(f"legs_per_node must be non-negative, got {legs_per_node}")
    graph = nx.path_graph(spine)
    next_label = spine
    for spine_node in range(spine):
        for _ in range(legs_per_node):
            graph.add_edge(spine_node, next_label)
            next_label += 1
    return graph


def bounded_degree_gnp_edges(
    n: int, p: float, max_degree: int, seed: Optional[int | random.Random] = None
) -> Iterator[Tuple[int, int]]:
    """The edge stream of :func:`bounded_degree_gnp`, without the graph.

    Consumes the RNG exactly like :func:`bounded_degree_gnp` (same
    shuffled candidate order, one draw per candidate, same greedy degree
    cap), so the yielded edges are the edge set of the seeded networkx
    instance — but nothing larger than a flat degree counter is ever
    materialised.  Streaming consumers
    (:meth:`~repro.graphs.compact.CompactGraph.from_edges`) build
    the CSR instance straight from this iterator.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be non-negative, got {max_degree}")
    rng = _make_rng(seed)

    def edge_stream() -> Iterator[Tuple[int, int]]:
        degree = [0] * n
        candidates = list(itertools.combinations(range(n), 2))
        rng.shuffle(candidates)
        for u, v in candidates:
            if rng.random() >= p:
                continue
            if degree[u] >= max_degree or degree[v] >= max_degree:
                continue
            degree[u] += 1
            degree[v] += 1
            yield (u, v)

    return edge_stream()


def bounded_degree_gnp(
    n: int, p: float, max_degree: int, seed: Optional[int | random.Random] = None
) -> nx.Graph:
    """An Erdős--Rényi graph post-processed to respect a degree cap.

    Edges are sampled G(n, p); edges that would push either endpoint above
    ``max_degree`` are discarded.  The result is a "typical" bounded-degree
    graph used as a realistic (non-worst-case) orientation workload.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(bounded_degree_gnp_edges(n, p, max_degree, seed=seed))
    return graph


def random_regular_graph(
    degree: int, n: int, seed: Optional[int] = None
) -> nx.Graph:
    """A uniformly random ``degree``-regular simple graph on ``n`` nodes.

    Thin wrapper over :func:`networkx.random_regular_graph` with argument
    validation matching this package's conventions (``degree * n`` must be
    even and ``degree < n``).
    """
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    if n <= degree:
        raise ValueError(
            f"need n > degree for a simple graph, got n={n}, degree={degree}"
        )
    if (degree * n) % 2 != 0:
        raise ValueError(f"degree * n must be even, got degree={degree}, n={n}")
    return nx.random_regular_graph(degree, n, seed=seed)


def high_girth_regular_graph(
    degree: int,
    n: int,
    girth: int,
    seed: Optional[int] = None,
    max_attempts: int = 2000,
) -> nx.Graph:
    """A ``degree``-regular graph with girth at least ``girth``.

    Theorem 6.3 uses Δ-regular graphs of girth ≥ Δ + 1, whose existence is
    classical but whose explicit construction is expensive.  For the
    moderate parameters used in experiments we obtain one by degree-
    preserving double edge swaps that break the shortest cycles of a random
    regular graph, retrying until the girth target is met.

    Raises
    ------
    RuntimeError
        If the target girth could not be reached within ``max_attempts``
        swap attempts (likely because ``n`` is too small for the requested
        degree/girth combination -- Moore-bound territory).
    """
    if girth < 3:
        raise ValueError(f"girth must be at least 3, got {girth}")
    rng = random.Random(seed)
    if degree <= 1 or girth == 3:
        return random_regular_graph(degree, n, seed=rng.randrange(2**31))

    # Start from a bipartite double cover of a smaller random regular graph:
    # it is degree-regular, triangle-free (girth >= 4), and cheap, which
    # leaves the swap loop below only the >= 5 part of the work.  The node
    # count is rounded up to the nearest feasible even split.
    def double_cover_start() -> nx.Graph:
        half = (n + 1) // 2
        if (half * degree) % 2 == 1:
            half += 1
        if half <= degree:
            half = degree + 1 + ((degree + 1) * degree) % 2
        base = random_regular_graph(degree, half, seed=rng.randrange(2**31))
        cover = nx.Graph()
        cover.add_nodes_from((node, side) for node in base.nodes() for side in (0, 1))
        for u, v in base.edges():
            cover.add_edge((u, 0), (v, 1))
            cover.add_edge((u, 1), (v, 0))
        return nx.convert_node_labels_to_integers(cover)

    graph = double_cover_start()
    if girth == 4:
        return graph

    for _ in range(max_attempts):
        cycle = _shortest_cycle(graph, girth)
        if cycle is None:
            return graph
        # Break the offending cycle with a double edge swap that preserves
        # regularity: remove one cycle edge and one random other edge, then
        # reconnect crosswise (only if the new edges keep the graph simple).
        u, v = cycle[0], cycle[1]
        edges = list(graph.edges())
        rng.shuffle(edges)
        swapped = False
        for x, y in edges:
            if len({u, v, x, y}) < 4:
                continue
            if graph.has_edge(u, x) or graph.has_edge(v, y):
                continue
            graph.remove_edge(u, v)
            graph.remove_edge(x, y)
            graph.add_edge(u, x)
            graph.add_edge(v, y)
            swapped = True
            break
        if not swapped:
            # Re-randomise entirely: cheaper than exhaustive search.
            graph = double_cover_start()
    cycle = _shortest_cycle(graph, girth)
    if cycle is None:
        return graph
    raise RuntimeError(
        f"could not reach girth {girth} for a {degree}-regular graph on {n} nodes "
        f"within {max_attempts} attempts; increase n"
    )


def _shortest_cycle(graph: nx.Graph, below: int) -> Optional[List[NodeId]]:
    """Return some cycle shorter than ``below``, or None if none exists.

    Runs a BFS from every node, stopping early at depth ``below // 2``;
    adequate for the small graphs used in girth experiments.
    """
    best: Optional[List[NodeId]] = None
    best_len = below
    for source in graph.nodes():
        # BFS recording parents; a non-tree edge closes a cycle.
        depth = {source: 0}
        parent = {source: None}
        queue = [source]
        while queue:
            current = queue.pop(0)
            if depth[current] * 2 >= best_len:
                continue
            for neighbor in graph.neighbors(current):
                if neighbor == parent[current]:
                    continue
                if neighbor in depth:
                    cycle_len = depth[current] + depth[neighbor] + 1
                    if cycle_len < best_len:
                        best_len = cycle_len
                        best = [current, neighbor]
                else:
                    depth[neighbor] = depth[current] + 1
                    parent[neighbor] = current
                    queue.append(neighbor)
    return best


def perfect_dary_tree(degree: int, depth: int) -> Tuple[nx.Graph, NodeId]:
    """A perfect d-ary tree in the paper's sense (Section 6).

    Every non-leaf node has total degree ``degree`` and all leaves are at
    the same distance ``depth`` from the root.  Concretely the root has
    ``degree`` children and every internal non-root node has ``degree - 1``
    children.  Returns ``(graph, root)``.
    """
    if degree < 2:
        raise ValueError(f"degree must be at least 2, got {degree}")
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    graph = nx.Graph()
    root = 0
    graph.add_node(root)
    next_label = 1
    frontier = [root]
    for level in range(depth):
        new_frontier: List[NodeId] = []
        for node in frontier:
            n_children = degree if node == root else degree - 1
            for _ in range(n_children):
                child = next_label
                next_label += 1
                graph.add_edge(node, child)
                new_frontier.append(child)
        frontier = new_frontier
    return graph, root


def complete_bipartite(num_customers: int, num_servers: int) -> CustomerServerGraph:
    """Every customer adjacent to every server (C = num_servers, S = num_customers)."""
    if num_customers < 1 or num_servers < 1:
        raise ValueError("need at least one customer and one server")
    customers = [f"c{i}" for i in range(num_customers)]
    servers = [f"s{j}" for j in range(num_servers)]
    edges = [(c, s) for c in customers for s in servers]
    return CustomerServerGraph(customers=customers, servers=servers, edges=edges)


def random_bipartite_customer_server(
    num_customers: int,
    num_servers: int,
    customer_degree: int,
    seed: Optional[int | random.Random] = None,
    server_skew: float = 0.0,
    compact: bool = False,
) -> "CustomerServerGraph | CompactBipartite":
    """A random customer--server workload with fixed customer degree.

    Each customer picks ``customer_degree`` distinct servers.  With
    ``server_skew > 0`` servers are sampled with Zipf-like weights
    ``1 / (rank + 1) ** server_skew`` so a few "popular" servers attract
    far more customers -- the regime where stable assignments visibly beat
    naive ones.

    Parameters
    ----------
    num_customers, num_servers:
        Side sizes (both positive; ``customer_degree <= num_servers``).
    customer_degree:
        C, the exact degree of every customer.
    seed:
        RNG seed or a shared :class:`random.Random`.
    server_skew:
        Zipf exponent for server popularity; 0 means uniform.
    compact:
        Emit a :class:`~repro.graphs.compact.CompactBipartite` built
        straight from the sampled edge list (same instance, CSR form)
        instead of the reference :class:`CustomerServerGraph`.
    """
    if num_customers < 1 or num_servers < 1:
        raise ValueError("need at least one customer and one server")
    if not 1 <= customer_degree <= num_servers:
        raise ValueError(
            f"customer_degree must be in [1, num_servers], got {customer_degree} "
            f"with num_servers={num_servers}"
        )
    if server_skew < 0:
        raise ValueError(f"server_skew must be non-negative, got {server_skew}")
    rng = _make_rng(seed)
    customers = [f"c{i}" for i in range(num_customers)]
    servers = [f"s{j}" for j in range(num_servers)]
    weights = [1.0 / (rank + 1.0) ** server_skew for rank in range(num_servers)]

    edges: List[Tuple[NodeId, NodeId]] = []
    for customer in customers:
        chosen: List[str] = []
        available = list(range(num_servers))
        avail_weights = list(weights)
        for _ in range(customer_degree):
            total = sum(avail_weights)
            pick = rng.random() * total
            acc = 0.0
            idx = 0
            for idx, w in enumerate(avail_weights):
                acc += w
                if pick <= acc:
                    break
            chosen.append(servers[available[idx]])
            del available[idx]
            del avail_weights[idx]
        edges.extend((customer, server) for server in chosen)
    if compact:
        return CompactBipartite.from_edges(
            customers=customers, servers=servers, edges=edges
        )
    return CustomerServerGraph(customers=customers, servers=servers, edges=edges)


# ----------------------------------------------------------------------
# Layered DAGs for the token dropping game
# ----------------------------------------------------------------------
def _validate_layered_params(
    num_levels: int, width: int, edge_probability: float, max_degree: Optional[int]
) -> None:
    if num_levels < 1:
        raise ValueError(f"num_levels must be positive, got {num_levels}")
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(f"edge_probability must lie in [0, 1], got {edge_probability}")
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"max_degree must be non-negative, got {max_degree}")


def layered_dag_edges(
    num_levels: int,
    width: int,
    edge_probability: float,
    seed: Optional[int | random.Random] = None,
    max_degree: Optional[int] = None,
) -> Iterator[Tuple[NodeId, NodeId]]:
    """The ``(child, parent)`` edge stream of :func:`random_layered_graph`.

    Yields exactly the edges (in exactly the order) the seeded
    :func:`random_layered_graph` call would record — same shuffled
    candidate list, one RNG draw per candidate, same greedy degree cap —
    without building the ``LayeredGraph`` containers.  When a shared
    ``random.Random`` is passed as ``seed``, consume the stream fully
    before drawing from the RNG again: the generator draws lazily.
    """
    _validate_layered_params(num_levels, width, edge_probability, max_degree)
    rng = _make_rng(seed)

    def edge_stream() -> Iterator[Tuple[NodeId, NodeId]]:
        degree: Dict[NodeId, int] = {}
        candidates = [
            ((level, i), (level + 1, j))
            for level in range(num_levels - 1)
            for i in range(width)
            for j in range(width)
        ]
        rng.shuffle(candidates)
        for child, parent in candidates:
            if rng.random() >= edge_probability:
                continue
            if max_degree is not None and (
                degree.get(child, 0) >= max_degree
                or degree.get(parent, 0) >= max_degree
            ):
                continue
            degree[child] = degree.get(child, 0) + 1
            degree[parent] = degree.get(parent, 0) + 1
            yield (child, parent)

    return edge_stream()


def random_layered_graph(
    num_levels: int,
    width: int,
    edge_probability: float,
    seed: Optional[int | random.Random] = None,
    max_degree: Optional[int] = None,
) -> LayeredGraph:
    """A random layered DAG with ``num_levels`` levels of ``width`` nodes.

    Every potential edge between adjacent levels is included independently
    with probability ``edge_probability``, subject to an optional degree
    cap (applied greedily in a shuffled order so the cap does not bias
    towards low-index nodes).

    Node identifiers are ``(level, index)`` tuples, which keeps levels
    recoverable from the identifier in examples and traces.
    """
    levels: Dict[NodeId, int] = {}
    for level in range(num_levels):
        for index in range(width):
            levels[(level, index)] = level
    edges = list(
        layered_dag_edges(
            num_levels, width, edge_probability, seed=seed, max_degree=max_degree
        )
    )
    return LayeredGraph(levels=levels, edges=edges)


#: The most draws :func:`layered_dag_edge_arrays` replays at once; it
#: bounds the NumPy temporaries to a few dozen MB whatever the size.
_MAX_CHUNK_DRAWS = 1 << 20


def _geometric_gaps(r, log_skip: float, block: int):
    """Candidate gaps ``min(int(log(1 - r) / log_skip), block) + 1``.

    The inverse-transform Geometric(p) gap for each uniform draw ``r``
    (a float64 array), with ``log_skip = log1p(-p)``.  ``np.log`` and
    ``math.log`` may round differently, so the quotient can differ in its
    last bits; every quotient within ``1e-9 * max(q, 1)`` of an integer,
    where a last-bit difference could move the truncation, is recomputed
    with ``math.log``.  The gaps therefore equal the scalar formula
    exactly.  Clamping the quotient at ``block`` keeps the gaps in
    ``int64``; a gap of ``block + 1`` ends any level.
    """
    import numpy as np

    q = np.minimum(np.log(1.0 - r) / log_skip, block)
    near = np.flatnonzero(np.abs(q - np.rint(q)) <= 1e-9 * np.maximum(q, 1.0))
    log = math.log
    for k, draw in zip(near.tolist(), r[near].tolist()):
        q[k] = min(log(1.0 - draw) / log_skip, block)
    return q.astype(np.int64) + 1


def layered_dag_edge_arrays(
    num_levels: int,
    width: int,
    edge_probability: float,
    *,
    seed: Optional[int | random.Random] = None,
) -> Tuple[array, array]:
    """A million-node-scale layered DAG as two flat ``(child, parent)`` arrays.

    The scale counterpart of :func:`random_layered_graph` for instances
    where even the O(L·w²) candidate list is unaffordable: candidates are
    *skipped over* geometrically (one RNG draw per **sampled** edge, not
    per candidate), so generating the edges costs O(m) time and two
    ``array('q')`` buffers of m ints, for any ``num_levels × width``.
    Edge ``k`` is ``child[k] -> parent[k]``.  Node identifiers are dense
    ints ``level * width + index`` — at 10^6–10^7 nodes, tuple ids would
    triple the interning cost for no informational gain (the level is
    recoverable as ``node // width``).

    This is a **different instance family** from
    :func:`random_layered_graph` (the RNG discipline differs by design);
    it is cross-validated against the dict reference by feeding the *same
    edges* to both the array and the dict-path builders at small n.

    Each potential edge between adjacent levels is included independently
    with probability ``edge_probability`` via inverse-transform sampling
    of the geometric gap between successes.  No degree cap: the expected
    degree is controlled by ``edge_probability`` directly (mean total
    degree ≈ ``2 · width · edge_probability`` away from the boundary
    levels).

    The sampler is defined by the scalar loop: per level, from position
    ``-1``, add ``int(log(1 - rng.random()) / log1p(-p)) + 1`` until the
    position reaches ``width²``; every position below it is an edge, and
    the draw that passes it ends the level.  It runs in NumPy (imported
    here): ``rng``'s ``random()`` stream is replayed
    (:mod:`repro._mt19937`) in chunks of at most
    :data:`_MAX_CHUNK_DRAWS` draws, :func:`_geometric_gaps` turns the
    draws into the loop's exact gaps, a ``cumsum`` gives the positions,
    and a ``searchsorted`` finds where each level ends.  ``rng`` is
    handed back in the state of exactly ``edges + num_levels - 1``
    draws, as the loop would leave it.  The level split costs a few µs
    of Python per level, so narrow shapes with many levels and about one
    edge per level (width 1, 10^5 levels) build ~3x slower than the
    scalar loop would; at width 10 and up the replay is faster.
    """
    _validate_layered_params(num_levels, width, edge_probability, None)
    rng = _make_rng(seed)
    child = array("q")
    parent = array("q")
    if edge_probability <= 0.0:
        return child, parent
    if edge_probability >= 1.0:
        for child_base in range(0, (num_levels - 1) * width, width):
            for i in range(child_base, child_base + width):
                child.extend([i] * width)
                parent.extend(range(child_base + width, child_base + 2 * width))
        return child, parent
    import numpy as np

    from repro._mt19937 import hand_back, numpy_bits, res53

    block = width * width
    log_skip = math.log1p(-edge_probability)
    levels = num_levels - 1
    # A level takes block·p draws on average for its edges, plus the one
    # that ends it.  Positions summed over a chunk stay below 2**62.
    per_level = block * edge_probability + 1.0
    max_chunk = min(_MAX_CHUNK_DRAWS, max(1, 2**62 // (block + 1)))
    bits = numpy_bits(rng)
    level = 0
    offset = -1  # the current level's position is offset + reach[k]
    while level < levels:
        expected = (levels - level) * per_level
        count = min(max_chunk, int(expected + 4.0 * math.sqrt(expected)) + 16)
        before = bits.state
        draws = res53(bits.random_raw(2 * count))
        reach = np.cumsum(_geometric_gaps(draws, log_skip, block))
        # Number candidate c of level l as l·block + c: a draw k in the
        # chunk's j-th level samples candidate bases[j] + reach[k].
        bases = [level * block + offset]
        ends: List[int] = []
        while level + len(ends) < levels:
            # The first draw whose position reaches the block ends the level.
            end = int(reach.searchsorted(block - offset))
            if end == count:
                break
            ends.append(end)
            offset = -1 - int(reach[end])
            bases.append((level + len(ends)) * block + offset)
        level += len(ends)
        used = ends[-1] + 1 if level == levels else count
        edges_per_level = np.diff([-1, *ends, used]) - 1
        candidate = np.delete(reach[:used], ends) + np.repeat(bases, edges_per_level)
        row, column = np.divmod(candidate, width)
        child.frombytes(memoryview(row).cast("B"))
        parent.frombytes(memoryview((row // width + 1) * width + column).cast("B"))
        if level < levels:
            offset += int(reach[-1])
        elif used < count:
            # Rewind to just after the last level's final draw.
            bits.state = before
            bits.random_raw(2 * used)
    hand_back(rng, bits)
    return child, parent
