"""Semi-matchings: cost, exact optimum, and the 2-approximation claim.

Section 1.3 of the paper: a *semi-matching* (Harvey, Ladner, Lovász,
Tamir 2006) assigns each customer to one adjacent server, minimising
``Σ_v f(load(v))`` with ``f(x) = 1 + 2 + ... + x = x(x+1)/2``.  As observed
by Czygrinow et al., a stable assignment is a factor-2 approximation of
the optimal semi-matching, so the paper's algorithms double as fast
2-approximation algorithms.

This module provides

* :func:`semi_matching_cost` -- the objective;
* :func:`optimal_semi_matching` -- an exact optimum computed by a min-cost
  flow with convex per-server costs (server slot ``i`` costs ``i``, which
  makes the flow's cost equal to ``Σ f(load)``);
* :func:`greedy_assignment` -- the naive "pick a least-loaded adjacent
  server, customers in arbitrary order" heuristic used as an additional
  comparison point in the benchmarks;
* :func:`approximation_ratio` -- measured cost / optimal cost, the
  quantity experiment E8 tabulates.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Mapping, Union


from repro.core.assignment.problem import Assignment
from repro.graphs.bipartite import CustomerServerGraph
from repro.graphs.compact import CompactBipartite

NodeId = Hashable


def triangular(x: int) -> int:
    """f(x) = 1 + 2 + ... + x."""
    if x < 0:
        raise ValueError(f"loads are non-negative, got {x}")
    return x * (x + 1) // 2


def semi_matching_cost(loads: Mapping[NodeId, int]) -> int:
    """Σ f(load) over the given server loads."""
    return sum(triangular(load) for load in loads.values())


def greedy_assignment(
    graph: Union[CustomerServerGraph, CompactBipartite],
    *,
    order: str = "sorted",
    seed: int = 0,
) -> Assignment:
    """Assign each customer, one at a time, to a currently least-loaded server.

    ``order`` controls the processing order of the customers: ``"sorted"``
    (deterministic) or ``"random"`` (seeded).  This is the natural
    centralized heuristic; it is *not* guaranteed to be stable, which the
    benchmarks use to show what stability buys.

    Greedy is a single pass, so interning a dict graph first would cost
    more than the pass saves: a :class:`CompactBipartite` runs the
    int-array kernel, any other graph :func:`greedy_assignment_reference`.
    Both give identical results.
    """
    if not isinstance(graph, CompactBipartite):
        return greedy_assignment_reference(graph, order=order, seed=seed)
    _check_order(order)
    return _greedy_assignment_compact(graph, order=order, seed=seed)


def greedy_assignment_reference(
    graph: Union[CustomerServerGraph, CompactBipartite],
    *,
    order: str = "sorted",
    seed: int = 0,
) -> Assignment:
    """:func:`greedy_assignment` over dict structures (the oracle)."""
    _check_order(order)
    if isinstance(graph, CompactBipartite):
        graph = graph.to_customer_server_graph()
    customers = list(graph.customers)
    if order == "random":
        random.Random(seed).shuffle(customers)
    assignment = Assignment(graph)
    for customer in customers:
        servers = sorted(graph.servers_of(customer), key=repr)
        target = min(servers, key=lambda s: (assignment.load(s), repr(s)))
        assignment.assign(customer, target)
    return assignment


def _check_order(order: str) -> None:
    if order not in ("sorted", "random"):
        raise ValueError(f"unknown order {order!r}; expected 'sorted' or 'random'")


def _greedy_assignment_compact(
    graph: Union[CustomerServerGraph, CompactBipartite], *, order: str, seed: int
) -> Assignment:
    """The int-array greedy kernel, wrapped as an :class:`Assignment`.

    Also interns a dict graph, so the cross-validation suite can run the
    kernel on the very instances the reference sees.
    """
    from repro.core.assignment._kernels import greedy_kernel

    if isinstance(graph, CompactBipartite):
        compact = graph
        ref_graph = compact.to_customer_server_graph()
    else:
        compact = CompactBipartite.from_customer_server_graph(graph)
        ref_graph = graph
    choice, load = greedy_kernel(compact, order=order, seed=seed)
    assignment = Assignment(ref_graph)
    assignment._choice = {
        compact.customer_ids[c]: compact.server_ids[choice[c]]
        for c in range(compact.num_customers)
    }
    assignment._load = {
        compact.server_ids[s]: load[s] for s in range(compact.num_servers)
    }
    return assignment


def optimal_semi_matching(graph: CustomerServerGraph) -> Assignment:
    """Compute an optimal semi-matching exactly via min-cost flow.

    Construction: ``source → customer`` (capacity 1, cost 0),
    ``customer → adjacent server`` (capacity 1, cost 0), and for every
    server ``s`` one unit-capacity "slot" arc per potential customer with
    costs ``1, 2, 3, ...``.  Because the slot costs are increasing, a
    min-cost flow fills the cheap slots first and its total cost is exactly
    ``Σ f(load)``, so an integral min-cost flow is an optimal semi-matching
    (this is the standard reduction from HLLT06).
    """
    import networkx as nx

    flow_graph = nx.DiGraph()
    source = ("__source__",)
    sink = ("__sink__",)
    num_customers = len(graph.customers)

    for customer in graph.customers:
        flow_graph.add_edge(source, ("c", customer), capacity=1, weight=0)
        for server in graph.servers_of(customer):
            flow_graph.add_edge(("c", customer), ("s", server), capacity=1, weight=0)
    for server in graph.servers:
        for slot in range(1, graph.server_degree(server) + 1):
            slot_node = ("slot", server, slot)
            flow_graph.add_edge(("s", server), slot_node, capacity=1, weight=slot)
            flow_graph.add_edge(slot_node, sink, capacity=1, weight=0)

    flow_graph.add_node(source, demand=-num_customers)
    flow_graph.add_node(sink, demand=num_customers)
    flow = nx.min_cost_flow(flow_graph)

    assignment = Assignment(graph)
    for customer in graph.customers:
        customer_node = ("c", customer)
        chosen: Optional[NodeId] = None
        for target, amount in flow.get(customer_node, {}).items():
            if amount > 0:
                chosen = target[1]
                break
        if chosen is None:  # pragma: no cover - flow always saturates customers
            raise RuntimeError(f"min-cost flow left customer {customer!r} unassigned")
        assignment.assign(customer, chosen)
    return assignment


def optimal_cost(graph: CustomerServerGraph) -> int:
    """Cost of an optimal semi-matching."""
    return optimal_semi_matching(graph).semi_matching_cost()


def approximation_ratio(assignment: Assignment, optimum: Optional[int] = None) -> float:
    """Measured cost divided by the optimal cost (1.0 means optimal).

    The optimum can be passed in to avoid recomputing it across a sweep.
    An empty instance (no customers) has ratio 1.0 by convention.
    """
    cost = assignment.semi_matching_cost()
    if optimum is None:
        optimum = optimal_cost(assignment.graph)
    if optimum == 0:
        return 1.0
    return cost / optimum


def is_two_approximation(assignment: Assignment, optimum: Optional[int] = None) -> bool:
    """The paper's claim for stable assignments: cost ≤ 2 × optimal cost."""
    return approximation_ratio(assignment, optimum) <= 2.0 + 1e-9


def load_histogram(loads: Mapping[NodeId, int]) -> Dict[int, int]:
    """``{load: number of servers with that load}`` (used in example output)."""
    histogram: Dict[int, int] = {}
    for load in loads.values():
        histogram[load] = histogram.get(load, 0) + 1
    return dict(sorted(histogram.items()))


def worst_server_load(loads: Mapping[NodeId, int]) -> int:
    """Maximum load (the makespan-style secondary objective)."""
    return max(loads.values(), default=0)
