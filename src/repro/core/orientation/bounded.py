"""The 0–1–many (k-bounded) relaxation of stable orientations (Section 1.4).

Section 1.4 of the paper relaxes stable orientations the same way
Section 7.3 relaxes stable assignments: customers (edges) only distinguish
servers of load 0, load 1, and load "at least 2".  The paper states two
results about this relaxation:

* it still requires Ω(Δ) rounds (it is at least as hard as maximal
  matching -- the bipartite case is Theorem 7.4), and
* it can be solved in O(Δ³) rounds, much faster than the O(Δ⁵)/O(Δ⁴)
  known for the general problem (the O(Δ³) follows from Theorem 7.5 with
  C = 2: O(C·S²) = O(Δ²) phases-times-token-dropping plus the constant
  factors; the paper quotes O(Δ³) for the orientation special case).

Because the stable orientation problem is exactly the stable assignment
problem with degree-2 customers (Section 1.3), the reproduction implements
the relaxed orientation by translating the graph to edge-customers and
running the k-bounded assignment algorithm.
:func:`run_bounded_stable_orientation_reference` translates the result
back to an :class:`~repro.core.orientation.problem.Orientation`;
:func:`run_bounded_stable_orientation` runs the edge-customer kernel,
keeps its flat arrays in a
:class:`~repro.core.orientation.problem.DenseOrientation`, and builds the
dict orientation and the assignment run only when a caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Union

from repro import obs
from repro.core.assignment.bounded import run_bounded_stable_assignment
from repro.core.assignment.algorithm import (
    AssignmentPhaseStats,
    StableAssignmentResult,
)
from repro.core.orientation.problem import (
    DenseOrientation,
    Orientation,
    OrientationProblem,
)
from repro.core.tie_break import check_tie_break
from repro.graphs.bipartite import CustomerServerGraph
from repro.graphs.compact import CompactGraph

NodeId = Hashable


@dataclass
class BoundedOrientationResult:
    """Outcome of the k-bounded stable orientation algorithm.

    From :func:`run_bounded_stable_orientation`, ``orientation`` is a
    :class:`~repro.core.orientation.problem.DenseOrientation` over the
    kernel's flat arrays, and :attr:`assignment_result` is built from them
    on first access.
    """

    orientation: Orientation
    k: int
    phases: int
    game_rounds: int
    per_phase: List[AssignmentPhaseStats] = field(default_factory=list)
    _assignment: Optional[StableAssignmentResult] = field(
        default=None, repr=False, compare=False
    )

    @property
    def assignment_result(self) -> Optional[StableAssignmentResult]:
        """The underlying k-bounded assignment run (per-phase statistics
        included); ``None`` only for edgeless problems, where there is
        nothing to orient."""
        if self._assignment is None and self.phases:
            edges = len(self.orientation.head_array)
            with obs.span("result.wrap", view="assignment", edges=edges):
                self._assignment = _assignment_view(self)
        return self._assignment

    @property
    def stable(self) -> bool:
        """k-bounded stability of the produced (complete) orientation."""
        return self.orientation.is_complete() and not bounded_unhappy_edges(
            self.orientation, self.k
        )


def bounded_unhappy_edges(orientation: Orientation, k: int = 2) -> List[tuple]:
    """Oriented edges that are unhappy under the k-bounded relaxation.

    An edge pointing at head ``v`` with tail ``u`` is k-bounded-unhappy iff
    ``load(u) <= min(k, load(v)) - 2`` -- for ``k = 2``: the head has load
    at least 2 while the tail still has load 0.
    """
    if isinstance(orientation, DenseOrientation):
        return orientation.edges_where(lambda tail, head: tail <= min(k, head) - 2)
    unhappy = []
    for tail, head in orientation.oriented_edges():
        threshold = min(k, orientation.load(head)) - 2
        if orientation.load(tail) <= threshold:
            unhappy.append((tail, head))
    return unhappy


def run_bounded_stable_orientation(
    problem: Union[OrientationProblem, CompactGraph],
    *,
    k: int = 2,
    tie_break: str = "min",
    seed: int = 0,
    check_invariants: bool = True,
    backend: str = "compact",
) -> BoundedOrientationResult:
    """Solve the 0–1–many (k-bounded) stable orientation problem.

    Parameters
    ----------
    problem:
        The undirected graph whose edges must be oriented — either the
        reference :class:`OrientationProblem` or a pre-interned
        :class:`~repro.graphs.compact.CompactGraph`.
    k:
        Relaxation threshold (≥ 2); ``k = 2`` is the 0–1–many version of
        Section 1.4.
    tie_break, seed, check_invariants:
        Passed through to the underlying k-bounded assignment algorithm.
    backend:
        Must be ``"compact"``.

    Runs the edge-customer specialisation of the assignment phases on flat
    int arrays; the result, including the embedded
    :class:`StableAssignmentResult`, is identical to
    :func:`run_bounded_stable_orientation_reference`.
    """
    from repro.core.orientation._kernels import bounded_orientation_kernel

    # Compatibility shim for perfbench/layers.py; delete with the next benchmark change.
    if backend != "compact":
        raise ValueError(f"backend must be 'compact', got {backend!r}")
    _check_k(k)
    if isinstance(problem, CompactGraph):
        compact = problem
    else:
        compact = CompactGraph.from_orientation_problem(problem)

    # An edgeless graph runs no phase and yields the trivially stable result.
    choice, loads, phases, game_rounds, per_phase = bounded_orientation_kernel(
        compact,
        k=k,
        tie_break=tie_break,
        seed=seed,
        check_invariants=check_invariants,
    )
    return BoundedOrientationResult(
        orientation=DenseOrientation(compact, choice, loads),
        k=k,
        phases=phases,
        game_rounds=game_rounds,
        per_phase=per_phase,
    )


def run_bounded_stable_orientation_reference(
    problem: Union[OrientationProblem, CompactGraph],
    *,
    k: int = 2,
    tie_break: str = "min",
    seed: int = 0,
    check_invariants: bool = True,
) -> BoundedOrientationResult:
    """:func:`run_bounded_stable_orientation` via the dict assignment (oracle)."""
    _check_k(k)
    check_tie_break(tie_break)
    if isinstance(problem, CompactGraph):
        problem = problem.to_orientation_problem()
    graph = CustomerServerGraph.from_orientation_graph(problem.edges)
    orientation = Orientation(problem)

    if not problem.edges:
        # Nothing to orient; trivially stable.
        return BoundedOrientationResult(
            orientation=orientation, k=k, phases=0, game_rounds=0
        )

    result = run_bounded_stable_assignment(
        graph, k=k, tie_break=tie_break, seed=seed, check_invariants=check_invariants
    )
    for customer, server in result.assignment.choices().items():
        # Customers are labelled ("edge", u, v) by from_orientation_graph.
        _, u, v = customer
        orientation.orient(u, v, head=server)

    return BoundedOrientationResult(
        orientation=orientation,
        k=k,
        phases=result.phases,
        game_rounds=result.game_rounds,
        per_phase=result.per_phase,
        _assignment=result,
    )


def _check_k(k: int) -> None:
    if k < 2:
        raise ValueError(f"the k-bounded relaxation requires k >= 2, got {k}")


def _assignment_view(result: BoundedOrientationResult) -> StableAssignmentResult:
    """The reference assignment run behind a compact bounded result.

    Rebuilt through the trusted reference constructors in one pass, so
    callers see exactly the objects the dict path produces: the kernel
    guarantees every edge customer has exactly its two distinct endpoints
    as servers, so no per-edge validation is needed.
    """
    from repro.core.assignment.problem import Assignment

    orientation = result.orientation
    compact, choice = orientation.graph, orientation.head_array
    ids = compact.node_ids
    customer_adjacency = {}
    server_members: dict = {}
    choices = {}
    for e in range(compact.num_edges):
        u, v = compact.edge_u[e], compact.edge_v[e]
        if u > v:
            u, v = v, u
        label = ("edge", ids[u], ids[v])
        customer_adjacency[label] = frozenset((ids[u], ids[v]))
        server_members.setdefault(u, []).append(label)
        server_members.setdefault(v, []).append(label)
        choices[label] = ids[choice[e]]
    server_dense = sorted(server_members)
    graph = CustomerServerGraph.from_validated_adjacency(
        customer_adjacency,
        {ids[i]: frozenset(server_members[i]) for i in server_dense},
    )
    assignment = Assignment.__new__(Assignment)
    assignment.graph = graph
    assignment._choice = choices
    assignment._load = {ids[i]: orientation.load_array[i] for i in server_dense}
    return StableAssignmentResult(
        assignment=assignment,
        phases=result.phases,
        game_rounds=result.game_rounds,
        k=result.k,
        per_phase=result.per_phase,
    )
