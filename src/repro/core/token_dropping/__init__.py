"""The token dropping game (Section 4 and Section 7.1 of the paper).

Public API overview
-------------------
Instances and solutions
    :class:`TokenDroppingInstance`, :class:`Traversal`,
    :class:`TokenDroppingSolution`, :func:`random_token_placement`,
    :func:`figure2_instance`.

Distributed algorithms (run on the LOCAL simulator)
    :func:`run_proposal_algorithm` -- the O(L·Δ²) proposal algorithm
    (Theorem 4.1); :func:`run_three_level_algorithm` -- the O(Δ)
    algorithm for games on levels {0, 1, 2} (Theorem 4.7).

Centralized baseline
    :func:`greedy_token_dropping` -- "move any movable token" (Section 4).

Each of the three runs an int-array kernel; the ``*_reference`` twin of
each is the readable per-node (or dict) implementation the kernel is
cross-validated against.

Hypergraph generalisation (Theorem 7.1)
    :class:`HypergraphTokenDroppingInstance`,
    :func:`run_hypergraph_proposal`.
"""

from repro.core.tie_break import TIE_BREAK_POLICIES, check_tie_break
from repro.core.token_dropping.game import (
    InvalidInstanceError,
    TokenDroppingInstance,
    figure2_instance,
    random_token_placement,
)
from repro.core.token_dropping.greedy import (
    GREEDY_ORDERS,
    exhaustive_is_stuck,
    greedy_token_dropping,
    greedy_token_dropping_reference,
)
from repro.core.token_dropping.hypergraph_game import (
    HyperTraversal,
    HypergraphRoundLimitExceeded,
    HypergraphTokenDroppingInstance,
    HypergraphTokenDroppingSolution,
    InvalidHypergraphInstanceError,
    InvalidHypergraphSolutionError,
    run_hypergraph_proposal,
)
from repro.core.token_dropping.proposal import (
    ROUNDS_PER_GAME_ROUND,
    ProposalNode,
    proposal_factory,
    reconstruct_solution,
    run_proposal_algorithm,
    run_proposal_algorithm_reference,
)
from repro.core.token_dropping.three_level import (
    ThreeLevelNode,
    UnsupportedHeightError,
    run_three_level_algorithm,
    run_three_level_algorithm_reference,
    theoretical_three_level_bound,
    three_level_factory,
)
from repro.core.token_dropping.traversal import (
    InvalidSolutionError,
    TokenDroppingSolution,
    Traversal,
    ValidationReport,
    solution_from_paths,
)

__all__ = [
    "GREEDY_ORDERS",
    "HyperTraversal",
    "HypergraphRoundLimitExceeded",
    "HypergraphTokenDroppingInstance",
    "HypergraphTokenDroppingSolution",
    "InvalidHypergraphInstanceError",
    "InvalidHypergraphSolutionError",
    "InvalidInstanceError",
    "InvalidSolutionError",
    "ProposalNode",
    "ROUNDS_PER_GAME_ROUND",
    "ThreeLevelNode",
    "TIE_BREAK_POLICIES",
    "TokenDroppingInstance",
    "TokenDroppingSolution",
    "Traversal",
    "UnsupportedHeightError",
    "ValidationReport",
    "check_tie_break",
    "exhaustive_is_stuck",
    "figure2_instance",
    "greedy_token_dropping",
    "greedy_token_dropping_reference",
    "proposal_factory",
    "random_token_placement",
    "reconstruct_solution",
    "run_hypergraph_proposal",
    "run_proposal_algorithm",
    "run_proposal_algorithm_reference",
    "run_three_level_algorithm",
    "run_three_level_algorithm_reference",
    "solution_from_paths",
    "theoretical_three_level_bound",
    "three_level_factory",
]
