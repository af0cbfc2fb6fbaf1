"""Best-response dynamics for stable assignments.

The phase-based algorithm of Section 7 is the paper's *distributed*
construction; this module adds the natural *centralized* dynamics as a
scalable production path and baseline: starting from a complete
assignment, repeatedly pick an unhappy customer and move it to a
least-loaded adjacent server.  Each move strictly decreases the potential
Σ load² by at least 2 (the same argument as for sequential edge flips,
Section 1.1), so the dynamics terminate in at most Σ load²/2 moves, at a
stable assignment by definition of the stopping condition.

Like :func:`~repro.core.orientation.sequential.sequential_flip_algorithm`,
the entry point runs an int-array kernel
(:mod:`repro.core.assignment._kernels`); its dict twin,
:func:`best_response_dynamics_reference`, is the readable oracle and
produces identical results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.core.assignment.problem import Assignment
from repro.core.assignment.semi_matching import greedy_assignment_reference
from repro.graphs.bipartite import CustomerServerGraph
from repro.graphs.compact import CompactBipartite

#: Supported policies for choosing the next unhappy customer to move.
BEST_RESPONSE_POLICIES = ("first", "random")


@dataclass
class BestResponseStats:
    """Statistics of one run of best-response dynamics.

    Attributes
    ----------
    moves:
        Total number of customer moves performed.
    initial_potential / final_potential:
        Σ load² before and after; every move decreases it by at least 2,
        so ``final <= initial - 2 * moves``.
    """

    moves: int = 0
    initial_potential: int = 0
    final_potential: int = 0


def best_response_dynamics(
    graph: Union[CustomerServerGraph, CompactBipartite],
    *,
    initial: Union[str, Assignment] = "greedy",
    policy: str = "first",
    seed: int = 0,
    max_moves: Optional[int] = None,
) -> Tuple[Assignment, BestResponseStats]:
    """Run best-response dynamics until no customer wants to switch.

    Parameters
    ----------
    graph:
        The customer--server instance (reference or compact form).
    initial:
        ``"greedy"`` (default: the deterministic greedy assignment) or a
        complete :class:`Assignment` to start from.
    policy:
        ``"first"`` moves the smallest unhappy customer (by ``repr``),
        ``"random"`` a seeded-uniform one.
    seed:
        Seed for the ``"random"`` policy.
    max_moves:
        Safety valve; defaults to the potential-argument bound
        ``Σ load² // 2 + 1`` of the initial assignment.

    Interns the instance once and runs the int-array kernel; the result
    is identical to :func:`best_response_dynamics_reference`.

    Returns
    -------
    (assignment, stats)
        The final (stable) assignment and run statistics.
    """
    from repro.core.assignment._kernels import best_response_kernel, greedy_kernel

    _check_args(initial, policy)
    if isinstance(graph, CompactBipartite):
        compact = graph
        ref_graph = None  # resolved lazily below
    else:
        compact = CompactBipartite.from_customer_server_graph(graph)
        ref_graph = graph

    if isinstance(initial, Assignment):
        choices = initial.choices()
        initial_choice = [
            compact.server_index[choices[customer]]
            for customer in compact.customer_ids
        ]
    else:
        initial_choice, _ = greedy_kernel(compact, order="sorted")

    choice, load, moves, initial_potential, final_potential = best_response_kernel(
        compact,
        initial_choice=initial_choice,
        policy=policy,
        seed=seed,
        max_moves=max_moves,
    )

    if ref_graph is None:
        ref_graph = compact.to_customer_server_graph()
    assignment = Assignment(ref_graph)
    assignment._choice = {
        compact.customer_ids[c]: compact.server_ids[choice[c]]
        for c in range(compact.num_customers)
    }
    assignment._load = {
        compact.server_ids[s]: load[s] for s in range(compact.num_servers)
    }
    stats = BestResponseStats(
        moves=moves,
        initial_potential=initial_potential,
        final_potential=final_potential,
    )
    return assignment, stats


def best_response_dynamics_reference(
    graph: Union[CustomerServerGraph, CompactBipartite],
    *,
    initial: Union[str, Assignment] = "greedy",
    policy: str = "first",
    seed: int = 0,
    max_moves: Optional[int] = None,
) -> Tuple[Assignment, BestResponseStats]:
    """:func:`best_response_dynamics` over dict structures (the oracle)."""
    _check_args(initial, policy)
    if isinstance(graph, CompactBipartite):
        graph = graph.to_customer_server_graph()
    rng = random.Random(seed)
    if isinstance(initial, Assignment):
        assignment = initial.copy()
    else:
        assignment = greedy_assignment_reference(graph, order="sorted")

    stats = BestResponseStats(
        initial_potential=assignment.sum_squared_loads(),
        final_potential=assignment.sum_squared_loads(),
    )
    if max_moves is None:
        max_moves = stats.initial_potential // 2 + 1

    while True:
        unhappy = assignment.unhappy_customers()
        if not unhappy:
            break
        if stats.moves >= max_moves:
            raise RuntimeError(
                f"best-response dynamics exceeded {max_moves} moves; "
                "the potential argument guarantees this cannot happen"
            )
        if policy == "first":
            customer = unhappy[0]
        else:  # random
            customer = unhappy[rng.randrange(len(unhappy))]
        target = min(
            sorted(graph.servers_of(customer), key=repr),
            key=lambda s: (assignment.load(s), repr(s)),
        )
        assignment.assign(customer, target)
        stats.moves += 1
        stats.final_potential = assignment.sum_squared_loads()

    return assignment, stats


def _check_args(initial: Union[str, Assignment], policy: str) -> None:
    if policy not in BEST_RESPONSE_POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; expected one of {BEST_RESPONSE_POLICIES}"
        )
    if isinstance(initial, Assignment) and not initial.is_complete():
        raise ValueError("best-response dynamics needs a complete initial assignment")
