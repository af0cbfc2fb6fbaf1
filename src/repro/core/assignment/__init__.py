"""Stable assignments, the k-bounded relaxation, and semi-matchings (Section 7).

Public API overview
-------------------
Problem & assignments
    :class:`Assignment`, :func:`check_stable_assignment`,
    :func:`effective_load`.

The paper's algorithms
    :func:`run_stable_assignment` -- the phase-based O(C·S⁴) algorithm
    (Theorem 7.3); :func:`run_bounded_stable_assignment` -- the k-bounded
    relaxation in O(C·S²) (Theorem 7.5);
    :func:`maximal_matching_via_bounded_assignment` -- the Theorem 7.4
    reduction from maximal matching.

Semi-matching quality (experiment E8)
    :func:`optimal_semi_matching`, :func:`approximation_ratio`,
    :func:`greedy_assignment`, :func:`semi_matching_cost`.

Scalable baseline
    :func:`best_response_dynamics` -- centralized unhappy-customer moves
    on int arrays.

:func:`best_response_dynamics` and :func:`greedy_assignment` have dict
twins, :func:`best_response_dynamics_reference` and
:func:`greedy_assignment_reference`, kept as the readable oracles the
kernels are cross-validated against.  The Theorem 7.3 phase algorithm
has no kernel: :func:`run_stable_assignment` is the reference.
"""

from repro.core.assignment.algorithm import (
    AssignmentPhaseStats,
    PHASE_OVERHEAD_ROUNDS,
    StableAssignmentResult,
    run_stable_assignment,
    theoretical_phase_bound,
    theoretical_round_bound,
)
from repro.core.assignment.best_response import (
    BEST_RESPONSE_POLICIES,
    BestResponseStats,
    best_response_dynamics,
    best_response_dynamics_reference,
)
from repro.core.assignment.bounded import (
    maximal_matching_via_bounded_assignment,
    run_bounded_stable_assignment,
    verify_maximal_matching,
)
from repro.core.assignment.problem import (
    Assignment,
    AssignmentError,
    AssignmentProblemSummary,
    check_stable_assignment,
    effective_load,
)
from repro.core.assignment.semi_matching import (
    approximation_ratio,
    greedy_assignment,
    greedy_assignment_reference,
    is_two_approximation,
    load_histogram,
    optimal_cost,
    optimal_semi_matching,
    semi_matching_cost,
    triangular,
    worst_server_load,
)

__all__ = [
    "Assignment",
    "AssignmentError",
    "BEST_RESPONSE_POLICIES",
    "BestResponseStats",
    "best_response_dynamics",
    "best_response_dynamics_reference",
    "AssignmentPhaseStats",
    "AssignmentProblemSummary",
    "PHASE_OVERHEAD_ROUNDS",
    "StableAssignmentResult",
    "approximation_ratio",
    "check_stable_assignment",
    "effective_load",
    "greedy_assignment",
    "greedy_assignment_reference",
    "is_two_approximation",
    "load_histogram",
    "maximal_matching_via_bounded_assignment",
    "optimal_cost",
    "optimal_semi_matching",
    "run_bounded_stable_assignment",
    "run_stable_assignment",
    "semi_matching_cost",
    "theoretical_phase_bound",
    "theoretical_round_bound",
    "triangular",
    "verify_maximal_matching",
    "worst_server_load",
]
