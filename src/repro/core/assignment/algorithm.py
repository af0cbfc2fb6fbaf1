"""The phase-based stable assignment algorithm (Theorem 7.3) and its k-bounded variant.

Section 7.2 generalises the stable orientation algorithm of Section 5 to
customer--server hypergraphs.  Each phase:

1. every unassigned customer proposes to an adjacent server with the
   minimum (effective) load, ties broken arbitrarily;
2. every server that received at least one proposal accepts exactly one;
3. a hypergraph token dropping instance is built from the *assigned*
   customers whose hyperedge badness is exactly 1 (head = assigned server,
   levels = current loads, a token on every accepting server);
4. the hypergraph token dropping game is solved (Theorem 7.1's proposal
   strategy) and every traversal step moves the corresponding customer's
   assignment from the old head to the new one;
5. every accepted customer is assigned to the server that accepted it.

Lemma 7.2 bounds the number of phases by O(C·S); together with the
O(L·S²) per-phase token dropping cost (L ≤ S) this yields O(C·S⁴) rounds.

The same engine, run on *effective* loads ``min(load, k)``, implements the
k-bounded relaxation of Section 7.3; for ``k = 2`` the per-phase token
dropping instances have only three levels, which is what Theorem 7.5
exploits to get O(C·S²) overall.  See :mod:`repro.core.assignment.bounded`
for the public wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.assignment.problem import (
    Assignment,
    check_stable_assignment,
    effective_load,
)
from repro.core.tie_break import check_tie_break
from repro.core.token_dropping.hypergraph_game import (
    HypergraphTokenDroppingInstance,
    run_hypergraph_proposal,
)
from repro.graphs.bipartite import CustomerServerGraph
from repro.graphs.hypergraph import Hypergraph
from repro.local_model.errors import AlgorithmError

NodeId = Hashable

#: LOCAL rounds charged per phase for the propose/accept/load exchange.
PHASE_OVERHEAD_ROUNDS = 3


@dataclass
class AssignmentPhaseStats:
    """Per-phase measurements of the stable assignment algorithm."""

    phase: int
    proposals: int
    accepted: int
    tokens: int
    game_hyperedges: int
    token_dropping_game_rounds: int
    token_dropping_height: int
    reassignments: int
    customers_assigned_total: int
    max_badness_after: int


@dataclass
class StableAssignmentResult:
    """Outcome of the phase-based stable assignment algorithm."""

    assignment: Assignment
    phases: int
    game_rounds: int
    k: Optional[int]
    per_phase: List[AssignmentPhaseStats] = field(default_factory=list)

    @property
    def stable(self) -> bool:
        """Whether the final assignment is stable (w.r.t. the chosen relaxation)."""
        return self.assignment.is_stable(self.k)


def theoretical_phase_bound(graph: CustomerServerGraph, constant: int = 4) -> int:
    """A concrete O(C·S) bound on the number of phases (Lemma 7.2)."""
    return (
        constant
        * (graph.max_customer_degree() + 1)
        * (graph.max_server_degree() + 1)
        + constant
    )


def theoretical_round_bound(graph: CustomerServerGraph, constant: int = 16) -> int:
    """A concrete O(C·S⁴) bound on the total game rounds (Theorem 7.3)."""
    c = graph.max_customer_degree() + 1
    s = graph.max_server_degree() + 1
    return constant * c * s**4 + constant


def _build_hypergraph_instance(
    graph: CustomerServerGraph,
    assignment: Assignment,
    accepted_servers: Dict[NodeId, NodeId],
    k: Optional[int],
) -> HypergraphTokenDroppingInstance:
    """Create the per-phase hypergraph token dropping instance.

    Levels are the (effective) loads of all servers; hyperedges are the
    already-assigned customers whose badness is exactly 1, with their
    assigned server as head; tokens go on the servers that accepted a
    proposal this phase.
    """
    loads = assignment.loads()
    levels = {server: effective_load(load, k) for server, load in loads.items()}

    hyperedges: Dict[NodeId, Tuple[NodeId, ...]] = {}
    heads: Dict[NodeId, NodeId] = {}
    for customer, server in assignment.choices().items():
        if len(graph.servers_of(customer)) < 2:
            continue  # rank-1 hyperedges cannot carry tokens and have badness 0
        if assignment.badness(customer, k) == 1:
            hyperedges[customer] = tuple(sorted(graph.servers_of(customer), key=repr))
            heads[customer] = server

    hypergraph = Hypergraph(vertices=graph.servers, hyperedges=hyperedges)
    return HypergraphTokenDroppingInstance(
        hypergraph=hypergraph,
        levels=levels,
        heads=heads,
        tokens=set(accepted_servers),
    )


def run_stable_assignment(
    graph: CustomerServerGraph,
    *,
    k: Optional[int] = None,
    tie_break: str = "min",
    seed: int = 0,
    check_invariants: bool = True,
    max_phases: Optional[int] = None,
) -> StableAssignmentResult:
    """Find a stable assignment (or a k-bounded stable assignment).

    Parameters
    ----------
    graph:
        The customer--server instance.
    k:
        ``None`` for the unrelaxed problem (Theorem 7.3); an integer
        ``>= 2`` for the k-bounded relaxation of Section 7.3 (``k = 2`` is
        Theorem 7.5's setting).
    tie_break, seed:
        Passed to the embedded hypergraph token dropping engine.
    check_invariants:
        Assert the per-phase badness invariant and final stability.
    max_phases:
        Budget on the number of phases (defaults to the Lemma 7.2 bound).

    Returns
    -------
    StableAssignmentResult
    """
    if k is not None and k < 2:
        raise ValueError(f"k must be None or an integer >= 2, got {k}")
    check_tie_break(tie_break)
    assignment = Assignment(graph)
    if max_phases is None:
        max_phases = theoretical_phase_bound(graph)

    per_phase: List[AssignmentPhaseStats] = []
    game_rounds = 0
    phase_index = 0

    while not assignment.is_complete():
        phase_index += 1
        if phase_index > max_phases:
            raise AlgorithmError(
                f"stable assignment exceeded the phase budget of {max_phases}; "
                "this contradicts Lemma 7.2 and indicates a bug"
            )
        loads = assignment.loads()

        # Step 1: every unassigned customer proposes to a least-loaded server.
        proposals_by_server: Dict[NodeId, List[NodeId]] = {}
        unassigned = assignment.unassigned_customers()
        for customer in unassigned:
            servers = sorted(graph.servers_of(customer), key=repr)
            target = min(servers, key=lambda s: (effective_load(loads[s], k), repr(s)))
            proposals_by_server.setdefault(target, []).append(customer)

        # Step 2: every server accepts exactly one proposal.
        accepted_servers: Dict[NodeId, NodeId] = {}
        for server, customers in proposals_by_server.items():
            accepted_servers[server] = sorted(customers, key=repr)[0]

        # Step 3: build and solve the hypergraph token dropping instance.
        instance = _build_hypergraph_instance(graph, assignment, accepted_servers, k)
        solution = run_hypergraph_proposal(instance, tie_break=tie_break, seed=seed)
        if check_invariants:
            violations = solution.validate(instance)
            if violations:
                raise AlgorithmError(
                    "invalid hypergraph token dropping solution: "
                    + "; ".join(violations)
                )

        # Step 4: move assignments along the traversals (change hyperedge heads).
        reassignments = 0
        for traversal in solution.traversals.values():
            for i, customer in enumerate(traversal.hyperedges):
                new_head = traversal.path[i + 1]
                assignment.assign(customer, new_head)
                reassignments += 1

        # Step 5: assign the accepted customers to their accepting servers.
        for server, customer in accepted_servers.items():
            assignment.assign(customer, server)

        max_badness = assignment.max_badness(k)
        if check_invariants and max_badness > 1:
            raise AlgorithmError(
                f"phase {phase_index} ended with max badness {max_badness} > 1; "
                "this contradicts the Section 7.2 invariant and indicates a bug"
            )

        td_rounds = solution.game_rounds or 0
        game_rounds += td_rounds + PHASE_OVERHEAD_ROUNDS
        per_phase.append(
            AssignmentPhaseStats(
                phase=phase_index,
                proposals=len(unassigned),
                accepted=len(accepted_servers),
                tokens=len(accepted_servers),
                game_hyperedges=instance.hypergraph.num_hyperedges(),
                token_dropping_game_rounds=td_rounds,
                token_dropping_height=instance.height,
                reassignments=reassignments,
                customers_assigned_total=len(assignment.choices()),
                max_badness_after=max_badness,
            )
        )

    if check_invariants:
        violations = check_stable_assignment(assignment, k)
        if violations:
            raise AlgorithmError(
                "final assignment is not stable: " + "; ".join(violations)
            )

    return StableAssignmentResult(
        assignment=assignment,
        phases=phase_index,
        game_rounds=game_rounds,
        k=k,
        per_phase=per_phase,
    )
