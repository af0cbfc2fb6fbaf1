"""The k-bounded stable assignment relaxation (Section 7.3).

For a threshold ``k >= 2`` all loads of at least ``k`` are treated as
equal: a customer is unhappy only if it chose a server with load ``ℓ`` but
also has a neighbour of load at most ``min(k, ℓ) − 2``.  For ``k = 2``
(the most relaxed non-trivial case) a customer is unhappy exactly when it
sits on a server of load ≥ 2 while an adjacent server has load 0.

The paper proves two results about this relaxation:

* **Theorem 7.4** -- it still requires Ω(Δ + log n / log log n) rounds,
  via a reduction *from* bipartite maximal matching: solve the 2-bounded
  problem, then let every server with more than one assigned customer keep
  exactly one of them; the kept edges form a maximal matching.
  :func:`maximal_matching_via_bounded_assignment` implements that
  reduction and is exercised by experiment E2/E7.
* **Theorem 7.5** -- it can be solved in O(C·S²) rounds, because the
  per-phase token dropping instances have only three levels (effective
  loads 0, 1, 2).  :func:`run_bounded_stable_assignment` is the public
  entry point; it delegates to the shared phase engine with effective
  loads.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

from repro.core.assignment.algorithm import (
    StableAssignmentResult,
    run_stable_assignment,
)
from repro.graphs.bipartite import CustomerServerGraph

NodeId = Hashable


def run_bounded_stable_assignment(
    graph: CustomerServerGraph,
    *,
    k: int = 2,
    tie_break: str = "min",
    seed: int = 0,
    check_invariants: bool = True,
) -> StableAssignmentResult:
    """Solve the k-bounded stable assignment problem (default ``k = 2``).

    Thin wrapper around :func:`repro.core.assignment.algorithm.run_stable_assignment`
    with effective loads; see Theorem 7.5.
    """
    if k < 2:
        raise ValueError(f"the k-bounded relaxation requires k >= 2, got {k}")
    return run_stable_assignment(
        graph,
        k=k,
        tie_break=tie_break,
        seed=seed,
        check_invariants=check_invariants,
    )


# ----------------------------------------------------------------------
# Theorem 7.4: maximal matching from a 2-bounded stable assignment
# ----------------------------------------------------------------------
def maximal_matching_via_bounded_assignment(
    graph: CustomerServerGraph,
    *,
    seed: int = 0,
) -> Tuple[Set[Tuple[NodeId, NodeId]], StableAssignmentResult]:
    """Compute a maximal matching using the Theorem 7.4 reduction.

    1. Solve the 2-bounded stable assignment problem on the bipartite
       graph, treating one side as customers and the other as servers.
    2. Every server with more than one assigned customer keeps exactly one
       of those edges; all other assigned edges are dropped.

    Returns the matching (as a set of (customer, server) pairs) together
    with the underlying assignment result.  The correctness argument is
    the proof of Theorem 7.4; :func:`verify_maximal_matching` checks the
    output independently in tests.
    """
    result = run_bounded_stable_assignment(graph, k=2, seed=seed)
    by_server: Dict[NodeId, List[NodeId]] = {}
    for customer, server in result.assignment.choices().items():
        by_server.setdefault(server, []).append(customer)

    matching: Set[Tuple[NodeId, NodeId]] = set()
    for server, customers in by_server.items():
        keep = sorted(customers, key=repr)[0]
        matching.add((keep, server))
    return matching, result


def verify_maximal_matching(
    graph: CustomerServerGraph, matching: Set[Tuple[NodeId, NodeId]]
) -> List[str]:
    """Check that ``matching`` is a maximal matching of the bipartite graph.

    Returns a list of violations (empty = correct): every matched pair must
    be an edge, no vertex may be matched twice, and no edge may have both
    endpoints unmatched.
    """
    violations: List[str] = []
    matched_customers: Set[NodeId] = set()
    matched_servers: Set[NodeId] = set()
    for customer, server in matching:
        if server not in graph.servers_of(customer):
            violations.append(f"({customer!r}, {server!r}) is not an edge")
        if customer in matched_customers:
            violations.append(f"customer {customer!r} matched twice")
        if server in matched_servers:
            violations.append(f"server {server!r} matched twice")
        matched_customers.add(customer)
        matched_servers.add(server)

    for customer in graph.customers:
        if customer in matched_customers:
            continue
        for server in graph.servers_of(customer):
            if server not in matched_servers:
                violations.append(
                    f"edge ({customer!r}, {server!r}) has both endpoints unmatched "
                    "(matching is not maximal)"
                )
                break
    return violations
