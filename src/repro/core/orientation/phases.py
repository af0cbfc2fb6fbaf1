"""The phase-based O(Δ⁴) stable orientation algorithm (Theorem 5.1).

Section 5 of the paper.  The algorithm starts from the *unoriented* graph
and orients edges gradually, maintaining the invariant that at the end of
every phase no oriented edge has badness larger than 1 (Lemma 5.4).  One
phase consists of:

1. every unoriented edge proposes to its endpoint with the smaller load
   (ties broken arbitrarily);
2. every node that received at least one proposal accepts exactly one;
3. a token dropping instance is created: **all** nodes participate,
   assigned to levels according to their current load; the instance's
   edges are exactly the oriented edges of badness exactly 1 (pointing
   from the tail's level up to the head's level); a token is placed on
   every node that accepted a proposal (Lemma 5.2 shows this is a valid
   instance of height ≤ Δ);
4. the token dropping game is solved (we use the proposal algorithm of
   Theorem 4.1 as the black box), and every edge that appears in a
   traversal is flipped;
5. finally each accepted unoriented edge is oriented towards the node
   that accepted it.

Lemma 5.5 bounds the number of phases by O(Δ), and with the O(Δ³) per-phase
cost of token dropping at height ≤ Δ this gives O(Δ⁴) rounds in total.

Round accounting
----------------
Each phase costs a constant number of rounds for the propose/accept
exchange (:data:`PHASE_OVERHEAD_ROUNDS`) plus the rounds of the embedded
token dropping run.  The result reports both game rounds (token dropping
game rounds + overhead) and raw LOCAL communication rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple, Union

from repro.core.orientation.problem import (
    DenseOrientation,
    Orientation,
    OrientationProblem,
    check_stable,
    edge_key,
)
from repro.core.token_dropping.game import TokenDroppingInstance
from repro.core.token_dropping.proposal import run_proposal_algorithm
from repro.dispatch import resolve_backend
from repro.graphs.compact import CompactGraph
from repro.graphs.layered import LayeredGraph
from repro.local_model.errors import AlgorithmError

NodeId = Hashable

#: LOCAL rounds charged per phase for the propose/accept/load exchange.
PHASE_OVERHEAD_ROUNDS = 3


@dataclass
class PhaseStats:
    """Per-phase measurements of the stable orientation algorithm."""

    phase: int
    proposals: int
    accepted: int
    tokens: int
    token_dropping_game_rounds: int
    token_dropping_communication_rounds: int
    token_dropping_height: int
    edges_flipped: int
    edges_oriented_total: int
    max_badness_after: int


@dataclass
class StableOrientationResult:
    """Outcome of the phase-based stable orientation algorithm.

    On the compact backends ``orientation`` is a
    :class:`~repro.core.orientation.problem.DenseOrientation` over the
    kernel's flat arrays (``orientation.to_arrays(graph)`` returns them
    without copying).
    """

    orientation: Orientation
    phases: int
    game_rounds: int
    communication_rounds: int
    per_phase: List[PhaseStats] = field(default_factory=list)

    @property
    def stable(self) -> bool:
        """Whether the final orientation is stable (it always should be)."""
        return self.orientation.is_stable()


def theoretical_phase_bound(problem: OrientationProblem, constant: int = 4) -> int:
    """A concrete O(Δ) bound on the number of phases (Lemma 5.5)."""
    return constant * (problem.max_degree() + 1) + constant


def theoretical_round_bound(problem: OrientationProblem, constant: int = 16) -> int:
    """A concrete O(Δ⁴) bound on the total game rounds (Theorem 5.1)."""
    delta = problem.max_degree() + 1
    return constant * delta**4 + constant


def _build_token_dropping_instance(
    problem: OrientationProblem,
    orientation: Orientation,
    accepted_nodes: Dict[NodeId, Tuple[NodeId, NodeId]],
) -> TokenDroppingInstance:
    """Create the per-phase token dropping instance (Lemma 5.2).

    Levels are the current loads; edges are the oriented edges of badness
    exactly 1 (tail at level ℓ, head at level ℓ+1, so the tail is the
    *child* through which the head could shed one unit of load); tokens sit
    on the nodes that accepted a proposal this phase.
    """
    loads = orientation.loads()
    layered_edges = []
    for tail, head in orientation.oriented_edges():
        if loads[head] - loads[tail] == 1:
            layered_edges.append((tail, head))
    graph = LayeredGraph(levels=loads, edges=layered_edges)
    return TokenDroppingInstance(graph, tokens=set(accepted_nodes))


def run_stable_orientation(
    problem: Union[OrientationProblem, CompactGraph],
    *,
    tie_break: str = "min",
    seed: int = 0,
    check_invariants: bool = True,
    max_phases: Optional[int] = None,
    backend: Optional[str] = None,
) -> StableOrientationResult:
    """Find a stable orientation with the token-dropping-based algorithm.

    Parameters
    ----------
    problem:
        The undirected graph to orient — either the reference
        :class:`OrientationProblem` or a pre-interned
        :class:`~repro.graphs.compact.CompactGraph`.
    tie_break, seed:
        Passed to the embedded token dropping proposal algorithm.
    check_invariants:
        When True (default), assert Lemma 5.4 (max badness ≤ 1) at the end
        of every phase and the stability of the final orientation, raising
        :class:`AlgorithmError` on violation.
    max_phases:
        Budget on the number of phases; defaults to the Lemma 5.5 bound,
        so exceeding it fails loudly.
    backend:
        ``"compact"`` / ``"dict"`` / ``"auto"`` (default; see
        :mod:`repro.dispatch`).  The compact fast path runs every phase —
        propose/accept, the embedded token dropping game, flips — on flat
        int arrays and produces identical results; ``"dict"`` forces the
        full reference chain including the per-node token dropping
        scheduler.

    Returns
    -------
    StableOrientationResult
    """
    if resolve_backend(backend) == "compact":
        return _run_stable_orientation_compact(
            problem,
            tie_break=tie_break,
            seed=seed,
            check_invariants=check_invariants,
            max_phases=max_phases,
        )
    if isinstance(problem, CompactGraph):
        problem = problem.to_orientation_problem()
    orientation = Orientation(problem)
    if max_phases is None:
        max_phases = theoretical_phase_bound(problem)

    per_phase: List[PhaseStats] = []
    game_rounds = 0
    communication_rounds = 0
    phase_index = 0

    while not orientation.is_complete():
        phase_index += 1
        if phase_index > max_phases:
            raise AlgorithmError(
                f"stable orientation exceeded the phase budget of {max_phases}; "
                "this contradicts Lemma 5.5 and indicates a bug"
            )
        loads = orientation.loads()

        # Step 1: every unoriented edge proposes to its lower-load endpoint.
        proposals_by_node: Dict[NodeId, List[Tuple[NodeId, NodeId]]] = {}
        unoriented = orientation.unoriented_edges()
        for u, v in unoriented:
            if loads[u] < loads[v]:
                target = u
            elif loads[v] < loads[u]:
                target = v
            else:
                target = u  # tie: canonical (smaller) endpoint
            proposals_by_node.setdefault(target, []).append((u, v))

        # Step 2: every node accepts exactly one received proposal.
        accepted_nodes: Dict[NodeId, Tuple[NodeId, NodeId]] = {}
        for node, edges in proposals_by_node.items():
            accepted_nodes[node] = sorted(edges, key=repr)[0]

        # Step 3: build and solve the token dropping instance (forcing the
        # reference scheduler, so backend="dict" is the full dict chain).
        instance = _build_token_dropping_instance(problem, orientation, accepted_nodes)
        solution = run_proposal_algorithm(
            instance, tie_break=tie_break, seed=seed, backend="dict"
        )
        if check_invariants:
            solution.validate(instance).raise_if_invalid()

        # Step 4: flip every edge that appears in a traversal.
        edges_flipped = 0
        for traversal in solution.traversals.values():
            for parent, child in zip(traversal.path, traversal.path[1:]):
                orientation.flip(child, parent)
                edges_flipped += 1

        # Step 5: orient the accepted (previously unoriented) edges.
        for node, (u, v) in accepted_nodes.items():
            orientation.orient(u, v, head=node)

        max_badness = orientation.max_badness()
        if check_invariants and max_badness > 1:
            raise AlgorithmError(
                f"phase {phase_index} ended with max badness {max_badness} > 1; "
                "this contradicts Lemma 5.4 and indicates a bug"
            )

        td_game_rounds = solution.game_rounds or 0
        td_comm_rounds = solution.communication_rounds or 0
        game_rounds += td_game_rounds + PHASE_OVERHEAD_ROUNDS
        communication_rounds += td_comm_rounds + PHASE_OVERHEAD_ROUNDS
        per_phase.append(
            PhaseStats(
                phase=phase_index,
                proposals=len(unoriented),
                accepted=len(accepted_nodes),
                tokens=instance.num_tokens,
                token_dropping_game_rounds=td_game_rounds,
                token_dropping_communication_rounds=td_comm_rounds,
                token_dropping_height=instance.height,
                edges_flipped=edges_flipped,
                edges_oriented_total=orientation.num_oriented(),
                max_badness_after=max_badness,
            )
        )

    if check_invariants:
        violations = check_stable(orientation)
        if violations:
            raise AlgorithmError(
                "final orientation is not stable: " + "; ".join(violations)
            )

    return StableOrientationResult(
        orientation=orientation,
        phases=phase_index,
        game_rounds=game_rounds,
        communication_rounds=communication_rounds,
        per_phase=per_phase,
    )


def _run_stable_orientation_compact(
    problem: Union[OrientationProblem, CompactGraph],
    *,
    tie_break: str,
    seed: int,
    check_invariants: bool,
    max_phases: Optional[int],
) -> StableOrientationResult:
    """Fast path: intern once, run the phase kernel, keep its arrays.

    The result's orientation is a :class:`DenseOrientation` over the
    kernel's ``heads``/``load`` arrays; its dict view is built only if a
    caller asks for it.
    """
    from repro.core.orientation._kernels import stable_orientation_kernel as kernel

    if isinstance(problem, CompactGraph):
        compact = problem
    else:
        compact = CompactGraph.from_orientation_problem(problem)

    heads, loads, phases, game_rounds, communication_rounds, per_phase = kernel(
        compact,
        tie_break=tie_break,
        seed=seed,
        check_invariants=check_invariants,
        max_phases=max_phases,
    )
    return StableOrientationResult(
        orientation=DenseOrientation(compact, heads, loads),
        phases=phases,
        game_rounds=game_rounds,
        communication_rounds=communication_rounds,
        per_phase=per_phase,
    )


def edge_key_of(u: NodeId, v: NodeId) -> Tuple[NodeId, NodeId]:
    """Re-export of :func:`repro.core.orientation.problem.edge_key` for callers."""
    return edge_key(u, v)
