"""Stable orientations (Sections 1.1, 5, and 6 of the paper).

Public API overview
-------------------
Problem & orientations
    :class:`OrientationProblem`, :class:`Orientation`,
    :func:`arbitrary_complete_orientation`, :func:`check_stable`.

The paper's algorithm (Theorem 5.1)
    :func:`run_stable_orientation` -- the phase-based O(Δ⁴) algorithm that
    uses token dropping as a black box.

Baselines
    :func:`sequential_flip_algorithm` -- the centralized flip algorithm of
    Section 1.1; :func:`synchronous_repair_orientation` -- a
    repair-from-arbitrary-orientation distributed baseline standing in for
    the O(Δ⁵) prior work (see the module docstring for the substitution
    rationale).

Incremental re-stabilization
    :class:`DynamicOrientation` -- wraps a solved orientation and absorbs
    edge/node churn (:class:`EdgeInsert`, :class:`EdgeDelete`,
    :class:`NodeJoin`, :class:`NodeLeave`) with frontier-local repair
    instead of recompute-from-scratch; see
    :mod:`repro.core.orientation.incremental` for the locality argument.

Every entry point above (and the k-bounded relaxation,
:func:`run_bounded_stable_orientation`) carries a compact int-array fast
path dispatched per :mod:`repro.dispatch` — identical results, verified
on hundreds of seeded instances by the cross-validation suite.
"""

from repro._lazy import lazy_attributes
from repro.core.orientation.incremental import (
    BatchStats,
    Delta,
    DynamicOrientation,
    EdgeDelete,
    EdgeInsert,
    NodeJoin,
    NodeLeave,
    UpdateStats,
)
from repro.core.orientation.problem import (
    Orientation,
    OrientationError,
    OrientationProblem,
    arbitrary_complete_orientation,
    check_stable,
    edge_key,
)
from repro.core.orientation.repair import (
    ROUNDS_PER_REPAIR_ITERATION,
    RepairRunStats,
    synchronous_repair_orientation,
)

# The phase algorithm, its k-bounded relaxation (which pulls in the
# assignment and token-dropping stacks) and the sequential baseline load on
# first use: the incremental engine and the serving path need none of them.
__getattr__ = lazy_attributes(
    __name__,
    {
        "repro.core.orientation.bounded": (
            "BoundedOrientationResult",
            "bounded_unhappy_edges",
            "run_bounded_stable_orientation",
            "theoretical_bounded_orientation_round_bound",
        ),
        "repro.core.orientation.phases": (
            "PHASE_OVERHEAD_ROUNDS",
            "PhaseStats",
            "StableOrientationResult",
            "run_stable_orientation",
            "theoretical_phase_bound",
            "theoretical_round_bound",
        ),
        "repro.core.orientation.sequential": (
            "FLIP_POLICIES",
            "SequentialRunStats",
            "flip_chain_length",
            "sequential_flip_algorithm",
        ),
    },
)

__all__ = [
    "BatchStats",
    "BoundedOrientationResult",
    "Delta",
    "DynamicOrientation",
    "EdgeDelete",
    "EdgeInsert",
    "FLIP_POLICIES",
    "NodeJoin",
    "NodeLeave",
    "Orientation",
    "UpdateStats",
    "bounded_unhappy_edges",
    "run_bounded_stable_orientation",
    "theoretical_bounded_orientation_round_bound",
    "OrientationError",
    "OrientationProblem",
    "PHASE_OVERHEAD_ROUNDS",
    "PhaseStats",
    "ROUNDS_PER_REPAIR_ITERATION",
    "RepairRunStats",
    "SequentialRunStats",
    "StableOrientationResult",
    "arbitrary_complete_orientation",
    "check_stable",
    "edge_key",
    "flip_chain_length",
    "run_stable_orientation",
    "sequential_flip_algorithm",
    "synchronous_repair_orientation",
    "theoretical_phase_bound",
    "theoretical_round_bound",
]
