"""Importable measure functions for the paper's experiments (E1–E10).

Each function takes ``seed=...`` plus grid parameters, builds its scenario
from :mod:`repro.workloads.scenarios`, runs an algorithm, and returns a
flat JSON-serialisable mapping of metrics.  Because they are top-level
named functions, the engine can reference them as ``module:qualname``
strings, re-import them inside pool workers, and hash their identity into
task content hashes.

These are the shared building blocks of ``scripts/run_experiments.py``,
``python -m repro experiments``, and the engine-driven benchmarks — one
definition of "what E1 measures", three consumers.

Measures whose algorithms have int-array kernels (sequential flips,
best-response dynamics, greedy assignment on compact instances) run them
through the public entry points.
"""

from __future__ import annotations

import math
from typing import Any, Dict

import networkx as nx

from repro.core.assignment import (
    approximation_ratio,
    best_response_dynamics,
    greedy_assignment,
    maximal_matching_via_bounded_assignment,
    optimal_cost,
    run_bounded_stable_assignment,
    run_stable_assignment,
    verify_maximal_matching,
)
from repro.core.orientation import (
    OrientationProblem,
    run_stable_orientation,
    sequential_flip_algorithm,
    synchronous_repair_orientation,
    theoretical_round_bound,
)
from repro.core.token_dropping import (
    greedy_token_dropping,
    run_proposal_algorithm,
    run_three_level_algorithm,
)
from repro.graphs.validation import check_perfect_dary_tree, graph_girth, is_regular
from repro.lower_bounds import (
    height2_matching_instance,
    lemma61_violations,
    lemma62_witness,
    matching_from_height2_solution,
    theorem63_instance_pair,
    views_isomorphic,
)
from repro.workloads import (
    bounded_degree_token_dropping,
    datacenter_assignment,
    hard_matching_bipartite,
    random_token_dropping,
    regular_orientation,
    uniform_assignment,
)


# ----------------------------------------------------------------------
# E10 — best-response dynamics at scale (compact fast path)
# ----------------------------------------------------------------------
def best_response_quality(
    *, seed: int, skew: float, jobs: int = 2000, servers: int = 400, replicas: int = 3
) -> Dict[str, Any]:
    """E10: best-response dynamics vs. greedy on compact datacenter workloads.

    Builds the instance in compact CSR form and runs both algorithms
    through the fast-path kernels, so this measure stays cheap at sizes
    where the dict reference paths would dominate a sweep.
    """
    graph = datacenter_assignment(
        num_jobs=jobs,
        num_servers=servers,
        replicas=replicas,
        popularity_skew=skew,
        seed=seed,
        compact=True,
    )
    assignment, stats = best_response_dynamics(graph, policy="first")
    greedy = greedy_assignment(graph, order="sorted")
    br_cost = assignment.semi_matching_cost()
    greedy_cost = greedy.semi_matching_cost()
    return {
        "skew": skew,
        "jobs": jobs,
        "servers": servers,
        "moves": stats.moves,
        "initial_potential": stats.initial_potential,
        "final_potential": stats.final_potential,
        "stable": assignment.is_stable(),
        "best_response_cost": br_cost,
        "greedy_cost": greedy_cost,
        "greedy_overhead": greedy_cost / br_cost if br_cost else 1.0,
        "max_load": assignment.max_load(),
        "greedy_max_load": greedy.max_load(),
    }


# ----------------------------------------------------------------------
# E1 / E3 — token dropping round complexity (Theorems 4.1, 4.7)
# ----------------------------------------------------------------------
def proposal_rounds_vs_delta(
    *, seed: int, delta: int, levels: int = 6
) -> Dict[str, Any]:
    """E1: proposal-algorithm game rounds on a Δ-capped layered game."""
    instance = bounded_degree_token_dropping(num_levels=levels, degree=delta, seed=seed)
    solution = run_proposal_algorithm(instance)
    solution.validate(instance).raise_if_invalid()
    bound = instance.theoretical_round_bound()
    return {
        "delta": instance.max_degree,
        "height": instance.height,
        "tokens": instance.num_tokens,
        "game_rounds": solution.game_rounds,
        "communication_rounds": solution.communication_rounds,
        "bound": bound,
        "bound_ratio": solution.game_rounds / bound,
    }


def proposal_rounds_vs_height(
    *,
    seed: int,
    height: int,
    width: int = 6,
    edge_probability: float = 0.5,
    token_fraction: float = 0.6,
    max_degree: int = 6,
) -> Dict[str, Any]:
    """E1: proposal-algorithm game rounds as the height L grows (fixed Δ)."""
    instance = random_token_dropping(
        num_levels=height + 1,
        width=width,
        edge_probability=edge_probability,
        token_fraction=token_fraction,
        max_degree=max_degree,
        seed=seed,
    )
    solution = run_proposal_algorithm(instance)
    solution.validate(instance).raise_if_invalid()
    return {
        "delta": instance.max_degree,
        "height": instance.height,
        "game_rounds": solution.game_rounds,
        "bound": instance.theoretical_round_bound(),
    }


def three_level_vs_generic(*, seed: int, delta: int) -> Dict[str, Any]:
    """E3: Theorem 4.7's O(Δ) algorithm vs. the generic one on 3-level games."""
    instance = bounded_degree_token_dropping(num_levels=3, degree=delta, seed=seed)
    fast = run_three_level_algorithm(instance)
    fast.validate(instance).raise_if_invalid()
    generic = run_proposal_algorithm(instance)
    return {
        "delta": instance.max_degree,
        "tokens": instance.num_tokens,
        "three_level_rounds": fast.game_rounds,
        "generic_rounds": generic.game_rounds,
        "speedup": (generic.game_rounds or 1) / max(fast.game_rounds, 1),
        "linear_bound": 8 * (instance.max_degree + 1) + 8,
    }


def greedy_order_ablation(
    *,
    seed: int,
    order: str,
    levels: int = 7,
    width: int = 8,
    edge_probability: float = 0.4,
    token_fraction: float = 0.6,
) -> Dict[str, Any]:
    """E1 ablation: does centralized move-selection order change total moves?"""
    instance = random_token_dropping(
        num_levels=levels,
        width=width,
        edge_probability=edge_probability,
        token_fraction=token_fraction,
        seed=seed,
    )
    solution = greedy_token_dropping(instance, order=order, seed=1)
    solution.validate(instance).raise_if_invalid()
    return {
        "order": order,
        "total_moves": solution.total_moves(),
        "tokens": instance.num_tokens,
    }


# ----------------------------------------------------------------------
# E2 — reductions from bipartite maximal matching (Theorems 4.6 / 7.4)
# ----------------------------------------------------------------------
def matching_reductions(*, seed: int, side: int, degree: int = 4) -> Dict[str, Any]:
    """E2: both maximal-matching reductions on a hard bipartite instance."""
    graph = hard_matching_bipartite(side=side, degree=degree, seed=seed)
    instance = height2_matching_instance(graph)
    solution = run_proposal_algorithm(instance)
    matching = matching_from_height2_solution(graph, solution)
    bounded_matching, bounded_result = maximal_matching_via_bounded_assignment(
        graph, seed=0
    )
    return {
        "side": side,
        "td_game_rounds": solution.game_rounds,
        "td_matching_size": len(matching),
        "td_maximal": not verify_maximal_matching(graph, matching),
        "ba_phases": bounded_result.phases,
        "ba_matching_size": len(bounded_matching),
        "ba_maximal": not verify_maximal_matching(graph, bounded_matching),
    }


# ----------------------------------------------------------------------
# E4 / E9 — stable orientation (Theorem 5.1) and baselines
# ----------------------------------------------------------------------
def orientation_vs_baselines(
    *, seed: int, delta: int, nodes_per_delta: int = 12
) -> Dict[str, Any]:
    """E4/E9: phase algorithm, repair baseline, sequential flips on Δ-regular."""
    problem = regular_orientation(
        degree=delta, num_nodes=nodes_per_delta * delta, seed=seed
    )
    result = run_stable_orientation(problem)
    _, repair = synchronous_repair_orientation(problem, seed=seed)
    _, seq = sequential_flip_algorithm(problem, policy="random", seed=seed)
    bound = theoretical_round_bound(problem)
    return {
        "delta": delta,
        "edges": problem.num_edges(),
        "phases": result.phases,
        "game_rounds": result.game_rounds,
        "round_bound": bound,
        "bound_ratio": result.game_rounds / bound,
        "stable": result.stable,
        "repair_rounds": repair.communication_rounds,
        "sequential_flips": seq.flips,
    }


# ----------------------------------------------------------------------
# E5 — the lower-bound instance pair (Theorem 6.3, Lemmas 6.1–6.2)
# ----------------------------------------------------------------------
def lower_bound_pair(*, seed: int, delta: int) -> Dict[str, Any]:
    """E5: verify the lemmas' premises and witnesses on the instance pair."""
    regular, tree, root = theorem63_instance_pair(delta, seed=seed)
    if not is_regular(regular, delta):
        raise AssertionError(f"theorem63 regular instance is not {delta}-regular")
    depth = check_perfect_dary_tree(tree, delta, root)
    girth = graph_girth(regular, cap=10)
    reg_orientation = run_stable_orientation(
        OrientationProblem.from_networkx(regular)
    ).orientation
    tree_orientation = run_stable_orientation(
        OrientationProblem.from_networkx(tree)
    ).orientation
    witness = lemma62_witness(reg_orientation, delta)
    lemma61_ok = lemma61_violations(tree, tree_orientation) == []
    radius = max(1, (int(girth) - 1) // 2 - 1) if math.isfinite(girth) else 1
    depths = nx.single_source_shortest_path_length(tree, root)
    interior = next(
        n
        for n, d in depths.items()
        if radius <= d <= depth - radius and tree.degree(n) == delta
    )
    indist = views_isomorphic(
        regular, next(iter(regular.nodes())), tree, interior, radius
    )
    return {
        "delta": delta,
        "regular_nodes": regular.number_of_nodes(),
        "girth": girth if math.isfinite(girth) else -1,
        "tree_nodes": tree.number_of_nodes(),
        "witness_load": reg_orientation.load(witness),
        "witness_required": math.ceil(delta / 2),
        "lemma61_holds": lemma61_ok,
        "view_radius": radius,
        "views_isomorphic": indist,
    }


# ----------------------------------------------------------------------
# E6 / E7 — stable assignment and the 2-bounded relaxation (Thms 7.3 / 7.5)
# ----------------------------------------------------------------------
def assignment_vs_bounded(
    *, seed: int, replicas: int, jobs: int = 120, servers: int = 24
) -> Dict[str, Any]:
    """E6/E7: general vs. 2-bounded stable assignment on uniform workloads."""
    graph = uniform_assignment(
        num_jobs=jobs, num_servers=servers, replicas=replicas, seed=seed
    )
    general = run_stable_assignment(graph, seed=seed)
    bounded = run_bounded_stable_assignment(graph, k=2, seed=seed)
    return {
        "replicas": replicas,
        "general_phases": general.phases,
        "general_rounds": general.game_rounds,
        "bounded_phases": bounded.phases,
        "bounded_rounds": bounded.game_rounds,
        "general_stable": general.stable,
        "bounded_stable": bounded.stable,
    }


# ----------------------------------------------------------------------
# E8 — semi-matching approximation quality (§1.3)
# ----------------------------------------------------------------------
def semi_matching_quality(
    *, seed: int, skew: float, jobs: int = 120, servers: int = 24, replicas: int = 3
) -> Dict[str, Any]:
    """E8: stable-vs-optimal and greedy-vs-optimal semi-matching cost ratios."""
    if skew == 0.0:
        graph = uniform_assignment(
            num_jobs=jobs, num_servers=servers, replicas=replicas, seed=seed
        )
    else:
        graph = datacenter_assignment(
            num_jobs=jobs,
            num_servers=servers,
            replicas=replicas,
            popularity_skew=skew,
            seed=seed,
        )
    optimum = optimal_cost(graph)
    stable = run_stable_assignment(graph, seed=seed)
    greedy = greedy_assignment(graph, order="random", seed=seed)
    return {
        "skew": skew,
        "optimal_cost": optimum,
        "stable_cost": stable.assignment.semi_matching_cost(),
        "stable_ratio": approximation_ratio(stable.assignment, optimum),
        "greedy_ratio": approximation_ratio(greedy, optimum),
        "stable": stable.stable,
    }
