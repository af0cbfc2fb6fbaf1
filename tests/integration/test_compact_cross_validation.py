"""Cross-validation: compact fast-path kernels vs. dict reference paths.

Every public entry point that runs a compact kernel promises *identical*
results to its named reference oracle — same final solution, same
statistics, same tie-breaking — not merely equally-good ones.  This
suite enforces that promise on 400+ seeded random instances spanning
every kernel and every policy:

* sequential flip orientation: 4 instance families x 20 seeds, policies
  rotated per seed (80 instances);
* phase-based stable orientation (Theorem 5.1): 4 families x 25 seeds,
  tie-break policies rotated (100 instances, full-result equality:
  orientations, loads, per-phase stats, game and communication rounds);
* synchronous repair baseline: 3 families x 25 seeds plus
  explicit-initial-orientation cases (77 instances, orientation and
  per-iteration statistics equality);
* k-bounded stable orientation: 3 families x 10 seeds x k in {2, 3},
  tie-break policies rotated (60 instances, orientation plus the full
  embedded assignment result — choices, loads, per-phase stats);
* best-response assignment dynamics: 2 families x 35 seeds, both
  policies exercised (70 instances);
* greedy semi-matching assignment: 50 instances, both orders;
* token dropping — proposal algorithm: 3 layered-DAG families x 25
  seeds, tie-break policies rotated (75 executions, full-solution and
  Runner-metrics equality);
* token dropping — three-level algorithm: 30 seeded games across
  degrees, tie-break policies rotated;
* token dropping — centralized greedy baseline: 25 seeds x all 4 move
  orders (100 executions);
* token dropping edge cases: mixed-type node ids, tokenless, empty, and
  single-node games on every kernel;
* orientation edge cases: mixed-type node ids and edgeless problems on
  the full pipeline (phases, repair, bounded).

Seeds are grouped into chunks per pytest case to keep collection
overhead low while preserving per-chunk failure granularity.
"""

from __future__ import annotations

import random

import pytest

from repro.core.assignment import (
    best_response_dynamics,
    best_response_dynamics_reference,
    greedy_assignment_reference,
)
from repro.core.assignment.semi_matching import _greedy_assignment_compact
from repro.core.orientation import (
    FLIP_POLICIES,
    OrientationProblem,
    arbitrary_complete_orientation,
    run_bounded_stable_orientation,
    run_bounded_stable_orientation_reference,
    run_stable_orientation,
    run_stable_orientation_reference,
    sequential_flip_algorithm,
    sequential_flip_algorithm_reference,
    synchronous_repair_orientation,
    synchronous_repair_orientation_reference,
)
from repro.core.token_dropping import (
    GREEDY_ORDERS,
    TIE_BREAK_POLICIES,
    TokenDroppingInstance,
    greedy_token_dropping,
    greedy_token_dropping_reference,
    run_proposal_algorithm,
    run_proposal_algorithm_reference,
    run_three_level_algorithm,
    run_three_level_algorithm_reference,
)
from repro.core.token_dropping.proposal import proposal_factory
from repro.core.token_dropping.three_level import three_level_factory
from repro.graphs.generators import bounded_degree_gnp
from repro.graphs.layered import LayeredGraph
from repro.local_model import Runner
from repro.workloads import (
    bounded_degree_token_dropping,
    datacenter_assignment,
    layered_dag_orientation,
    random_token_dropping,
    regular_orientation,
    sensor_network_orientation,
    uniform_assignment,
)

pytestmark = pytest.mark.integration

SEED_CHUNKS = [range(start, start + 10) for start in (0, 10)]


def _orientation_instance(family: str, seed: int) -> OrientationProblem:
    if family == "gnp":
        problem = OrientationProblem.from_networkx(
            bounded_degree_gnp(26, 0.25, 6, seed=seed)
        )
    elif family == "regular":
        problem = regular_orientation(degree=4, num_nodes=24, seed=seed)
    elif family == "layered":
        problem = layered_dag_orientation(
            num_levels=4, width=6, edge_probability=0.5, seed=seed
        )
    else:  # sensor
        problem = sensor_network_orientation(num_nodes=30, max_degree=6, seed=seed)
    return problem


class TestSequentialFlipsAgree:
    """80 orientation instances; policy rotates with the seed."""

    @pytest.mark.parametrize("family", ["gnp", "regular", "layered", "sensor"])
    @pytest.mark.parametrize("seeds", SEED_CHUNKS, ids=["s0-9", "s10-19"])
    def test_identical_orientations_and_stats(self, family, seeds):
        for seed in seeds:
            problem = _orientation_instance(family, seed)
            policy = FLIP_POLICIES[seed % len(FLIP_POLICIES)]
            ref, ref_stats = sequential_flip_algorithm_reference(
                problem, policy=policy, seed=seed, record_trace=True
            )
            fast, fast_stats = sequential_flip_algorithm(
                problem, policy=policy, seed=seed, record_trace=True
            )
            context = (family, seed, policy)
            assert ref.oriented_edges() == fast.oriented_edges(), context
            assert ref.loads() == fast.loads(), context
            assert ref_stats == fast_stats, context
            assert fast.is_stable(), context


def _assert_orientation_results_equal(ref, fast, context) -> None:
    """Full StableOrientationResult equality, field by field."""
    assert (
        ref.orientation.oriented_edges() == fast.orientation.oriented_edges()
    ), context
    assert ref.orientation.loads() == fast.orientation.loads(), context
    assert ref.phases == fast.phases, context
    assert ref.game_rounds == fast.game_rounds, context
    assert ref.communication_rounds == fast.communication_rounds, context
    assert ref.per_phase == fast.per_phase, context


class TestStableOrientationAgrees:
    """100 orientation instances; the tie-break policy rotates per seed."""

    @pytest.mark.parametrize("family", ["gnp", "regular", "layered", "sensor"])
    @pytest.mark.parametrize(
        "seeds", [range(0, 10), range(10, 25)], ids=["s0-9", "s10-24"]
    )
    def test_identical_results_and_stats(self, family, seeds):
        for seed in seeds:
            problem = _orientation_instance(family, seed)
            tie_break = TIE_BREAK_POLICIES[seed % len(TIE_BREAK_POLICIES)]
            ref = run_stable_orientation_reference(
                problem, tie_break=tie_break, seed=seed
            )
            fast = run_stable_orientation(
                problem, tie_break=tie_break, seed=seed
            )
            context = (family, seed, tie_break)
            _assert_orientation_results_equal(ref, fast, context)
            assert fast.stable, context

    def test_unhappy_edge_sets_match_under_partial_invariants(self):
        """check_invariants=False still yields identical (stable) results."""
        for seed in range(5):
            problem = _orientation_instance("sensor", seed)
            ref = run_stable_orientation_reference(
                problem, check_invariants=False
            )
            fast = run_stable_orientation(
                problem, check_invariants=False
            )
            context = ("sensor-noinv", seed)
            _assert_orientation_results_equal(ref, fast, context)
            assert ref.orientation.unhappy_edges() == fast.orientation.unhappy_edges()


class TestRepairAgrees:
    """77 repair runs: seeded random starts plus explicit initials."""

    @pytest.mark.parametrize("family", ["gnp", "regular", "sensor"])
    @pytest.mark.parametrize(
        "seeds", [range(0, 10), range(10, 25)], ids=["s0-9", "s10-24"]
    )
    def test_identical_orientations_and_stats(self, family, seeds):
        for seed in seeds:
            problem = _orientation_instance(family, seed)
            ref, ref_stats = synchronous_repair_orientation_reference(
                problem, seed=seed
            )
            fast, fast_stats = synchronous_repair_orientation(
                problem, seed=seed
            )
            context = (family, seed)
            assert ref.oriented_edges() == fast.oriented_edges(), context
            assert ref.loads() == fast.loads(), context
            assert ref_stats == fast_stats, context
            assert fast.is_stable(), context

    @pytest.mark.parametrize("towards", ["max", "random"])
    def test_identical_from_explicit_initial(self, towards):
        problem = _orientation_instance("regular", 7)
        initial = arbitrary_complete_orientation(
            problem, rng=random.Random(11), towards=towards
        )
        ref, ref_stats = synchronous_repair_orientation_reference(
            problem, initial=initial, seed=3
        )
        fast, fast_stats = synchronous_repair_orientation(
            problem, initial=initial, seed=3
        )
        assert ref.oriented_edges() == fast.oriented_edges(), towards
        assert ref.loads() == fast.loads(), towards
        assert ref_stats == fast_stats, towards


class TestBoundedOrientationAgrees:
    """60 k-bounded runs; tie-break rotates per seed, k in {2, 3}."""

    @pytest.mark.parametrize("family", ["gnp", "regular", "layered"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_identical_results_and_assignment(self, family, k):
        for seed in range(10):
            problem = _orientation_instance(family, seed)
            tie_break = TIE_BREAK_POLICIES[seed % len(TIE_BREAK_POLICIES)]
            ref = run_bounded_stable_orientation_reference(
                problem, k=k, tie_break=tie_break, seed=seed
            )
            fast = run_bounded_stable_orientation(
                problem, k=k, tie_break=tie_break, seed=seed
            )
            context = (family, k, seed, tie_break)
            assert (
                ref.orientation.oriented_edges() == fast.orientation.oriented_edges()
            ), context
            assert ref.orientation.loads() == fast.orientation.loads(), context
            assert ref.phases == fast.phases, context
            assert ref.game_rounds == fast.game_rounds, context
            ref_assignment = ref.assignment_result
            fast_assignment = fast.assignment_result
            assert ref_assignment.per_phase == fast_assignment.per_phase, context
            assert (
                ref_assignment.assignment.choices()
                == fast_assignment.assignment.choices()
            ), context
            assert (
                ref_assignment.assignment.loads() == fast_assignment.assignment.loads()
            ), context
            assert fast.stable, context
            assert fast_assignment.stable, context


class TestOrientationPipelineEdgeCases:
    """Degenerate and mixed-type problems on the whole pipeline."""

    @staticmethod
    def _mixed_type_problem() -> OrientationProblem:
        """Int, str, and tuple node ids in one graph (repr-order ties)."""
        edges = [
            (1, "one"),
            (1, (2, "a")),
            ("one", (2, "a")),
            (10, (2, "a")),
            (10, 3),
            (3, "one"),
            (10, "ten"),
            ("ten", 3),
        ]
        return OrientationProblem(edges=edges)

    def test_mixed_type_node_ids_agree(self):
        problem = self._mixed_type_problem()
        for tie_break in TIE_BREAK_POLICIES:
            ref = run_stable_orientation_reference(
                problem, tie_break=tie_break, seed=2
            )
            fast = run_stable_orientation(
                problem, tie_break=tie_break, seed=2
            )
            _assert_orientation_results_equal(ref, fast, tie_break)
            bounded_ref = run_bounded_stable_orientation_reference(
                problem, tie_break=tie_break, seed=2
            )
            bounded_fast = run_bounded_stable_orientation(
                problem, tie_break=tie_break, seed=2
            )
            assert (
                bounded_ref.orientation.oriented_edges()
                == bounded_fast.orientation.oriented_edges()
            ), tie_break
            assert (
                bounded_ref.assignment_result.per_phase
                == bounded_fast.assignment_result.per_phase
            ), tie_break
        ref, ref_stats = synchronous_repair_orientation_reference(problem, seed=4)
        fast, fast_stats = synchronous_repair_orientation(
            problem, seed=4
        )
        assert ref.oriented_edges() == fast.oriented_edges()
        assert ref_stats == fast_stats

    def test_edgeless_problems_agree(self):
        problem = OrientationProblem(edges=[], nodes=["a", "b", 3])
        ref = run_stable_orientation_reference(problem)
        fast = run_stable_orientation(problem)
        _assert_orientation_results_equal(ref, fast, "edgeless")
        assert fast.phases == 0
        bounded_ref = run_bounded_stable_orientation_reference(problem)
        bounded_fast = run_bounded_stable_orientation(problem)
        assert bounded_ref.phases == bounded_fast.phases == 0
        assert bounded_fast.assignment_result is None
        ref_o, ref_stats = synchronous_repair_orientation_reference(problem)
        fast_o, fast_stats = synchronous_repair_orientation(problem)
        assert ref_o.oriented_edges() == fast_o.oriented_edges() == ()
        assert ref_stats == fast_stats


class TestBestResponseAgrees:
    """70 assignment instances across both policies."""

    @pytest.mark.parametrize(
        "family,seeds",
        [
            ("datacenter", range(0, 10)),
            ("datacenter", range(10, 20)),
            ("datacenter", range(20, 35)),
            ("uniform", range(0, 10)),
            ("uniform", range(10, 20)),
            ("uniform", range(20, 35)),
        ],
        ids=[
            "dc-s0-9",
            "dc-s10-19",
            "dc-s20-34",
            "uni-s0-9",
            "uni-s10-19",
            "uni-s20-34",
        ],
    )
    def test_identical_assignments_and_stats(self, family, seeds):
        for seed in seeds:
            if family == "datacenter":
                graph = datacenter_assignment(
                    num_jobs=55, num_servers=11, replicas=3, seed=seed
                )
            else:
                graph = uniform_assignment(
                    num_jobs=55, num_servers=11, replicas=3, seed=seed
                )
            policy = "first" if seed % 2 == 0 else "random"
            ref, ref_stats = best_response_dynamics_reference(
                graph, policy=policy, seed=seed
            )
            fast, fast_stats = best_response_dynamics(
                graph, policy=policy, seed=seed
            )
            context = (family, seed, policy)
            assert ref.choices() == fast.choices(), context
            assert ref.loads() == fast.loads(), context
            assert ref_stats == fast_stats, context
            assert fast.is_stable(), context


class TestGreedyAgrees:
    """50 greedy instances across both processing orders."""

    @pytest.mark.parametrize(
        "seeds", [range(0, 10), range(10, 25)], ids=["s0-9", "s10-24"]
    )
    def test_identical_greedy_choices(self, seeds):
        for seed in seeds:
            for order in ("sorted", "random"):
                graph = datacenter_assignment(
                    num_jobs=45,
                    num_servers=9,
                    replicas=3,
                    popularity_skew=float(seed % 3),
                    seed=seed,
                )
                ref = greedy_assignment_reference(graph, order=order, seed=seed)
                fast = _greedy_assignment_compact(
                    graph, order=order, seed=seed
                )
                assert ref.choices() == fast.choices(), (seed, order)
                assert ref.loads() == fast.loads(), (seed, order)


def _token_dropping_instance(family: str, seed: int) -> TokenDroppingInstance:
    if family == "wide":
        return random_token_dropping(
            num_levels=4, width=8, edge_probability=0.4, token_fraction=0.6, seed=seed
        )
    if family == "tall":
        return random_token_dropping(
            num_levels=8, width=4, edge_probability=0.5, token_fraction=0.5, seed=seed
        )
    return bounded_degree_token_dropping(num_levels=5, degree=4, seed=seed)


def _mixed_type_instance() -> TokenDroppingInstance:
    """Int, str, and tuple node ids in one game (repr-order tie-breaks)."""
    levels = {1: 0, "one": 0, (2, "a"): 1, 10: 1, "top": 2, 3: 2}
    edges = [
        (1, (2, "a")),
        ("one", (2, "a")),
        (1, 10),
        ((2, "a"), "top"),
        (10, 3),
        ((2, "a"), 3),
    ]
    graph = LayeredGraph(levels=levels, edges=edges)
    return TokenDroppingInstance(graph, frozenset({(2, "a"), "top", 3, 10}))


class TestProposalAlgorithmAgrees:
    """75 layered games; the tie-break policy rotates with the seed."""

    @pytest.mark.parametrize("family", ["wide", "tall", "bounded"])
    @pytest.mark.parametrize(
        "seeds", [range(0, 10), range(10, 25)], ids=["s0-9", "s10-24"]
    )
    def test_identical_solutions(self, family, seeds):
        for seed in seeds:
            instance = _token_dropping_instance(family, seed)
            tie_break = TIE_BREAK_POLICIES[seed % len(TIE_BREAK_POLICIES)]
            ref = run_proposal_algorithm_reference(
                instance, tie_break=tie_break, seed=seed
            )
            fast = run_proposal_algorithm(
                instance, tie_break=tie_break, seed=seed
            )
            context = (family, seed, tie_break)
            # Solution equality covers final placements, used edges, pass
            # histories, and both round counters.
            assert ref == fast, context
            assert fast.validate(instance).valid, context

    @pytest.mark.parametrize("tie_break", TIE_BREAK_POLICIES)
    @pytest.mark.parametrize("seed", range(10))
    def test_identical_runner_metrics(self, seed, tie_break):
        """Full ExecutionMetrics equality: rounds, messages, halt rounds."""
        instance = _token_dropping_instance("wide", seed)
        network = instance.to_network()
        budget = 3 * instance.theoretical_round_bound()
        ref = Runner(
            network, proposal_factory(tie_break, seed), max_rounds=budget
        ).run_reference()
        fast = Runner(
            network, proposal_factory(tie_break, seed), max_rounds=budget
        ).run()
        assert ref.outputs == fast.outputs, seed
        assert ref.metrics == fast.metrics, seed


class TestThreeLevelAlgorithmAgrees:
    """30 three-level games across degrees and tie-break policies."""

    @pytest.mark.parametrize(
        "seeds", [range(0, 10), range(10, 20), range(20, 30)],
        ids=["s0-9", "s10-19", "s20-29"],
    )
    def test_identical_solutions(self, seeds):
        for seed in seeds:
            degree = (3, 5, 7)[seed % 3]
            instance = bounded_degree_token_dropping(
                num_levels=3, degree=degree, seed=seed
            )
            tie_break = TIE_BREAK_POLICIES[seed % len(TIE_BREAK_POLICIES)]
            ref = run_three_level_algorithm_reference(
                instance, tie_break=tie_break, seed=seed
            )
            fast = run_three_level_algorithm(
                instance, tie_break=tie_break, seed=seed
            )
            context = (seed, degree, tie_break)
            assert ref == fast, context
            assert fast.validate(instance).valid, context

    @pytest.mark.parametrize("tie_break", TIE_BREAK_POLICIES)
    @pytest.mark.parametrize("seed", range(5))
    def test_identical_runner_metrics(self, seed, tie_break):
        instance = bounded_degree_token_dropping(num_levels=3, degree=5, seed=seed)
        network = instance.to_network(include_levels=True)
        ref = Runner(
            network, three_level_factory(tie_break, seed), max_rounds=1000
        ).run_reference()
        fast = Runner(
            network,
            three_level_factory(tie_break, seed),
            max_rounds=1000,
        ).run()
        assert ref.outputs == fast.outputs, seed
        assert ref.metrics == fast.metrics, seed


class TestGreedyTokenDroppingAgrees:
    """25 games x all 4 centralized move orders (100 executions)."""

    @pytest.mark.parametrize(
        "seeds", [range(0, 10), range(10, 25)], ids=["s0-9", "s10-24"]
    )
    def test_identical_solutions(self, seeds):
        for seed in seeds:
            instance = random_token_dropping(
                num_levels=5,
                width=7,
                edge_probability=0.4,
                token_fraction=0.6,
                seed=seed,
            )
            for order in GREEDY_ORDERS:
                ref = greedy_token_dropping_reference(
                    instance, order=order, seed=seed
                )
                fast = greedy_token_dropping(
                    instance, order=order, seed=seed
                )
                assert ref == fast, (seed, order)
                assert fast.validate(instance).valid, (seed, order)


class TestTokenDroppingEdgeCases:
    """Degenerate and mixed-type games on every kernel."""

    def test_mixed_type_node_ids_agree(self):
        instance = _mixed_type_instance()
        for tie_break in TIE_BREAK_POLICIES:
            assert run_proposal_algorithm_reference(
                instance, tie_break=tie_break, seed=3
            ) == run_proposal_algorithm(
                instance, tie_break=tie_break, seed=3
            ), tie_break
            assert run_three_level_algorithm_reference(
                instance, tie_break=tie_break, seed=3
            ) == run_three_level_algorithm(
                instance, tie_break=tie_break, seed=3
            ), tie_break
        for order in GREEDY_ORDERS:
            assert greedy_token_dropping_reference(
                instance, order=order, seed=5
            ) == greedy_token_dropping(
                instance, order=order, seed=5
            ), order

    def test_tokenless_game_agrees(self):
        graph = LayeredGraph(
            levels={"a": 0, "b": 0, "c": 1, "d": 2},
            edges=[("a", "c"), ("b", "c"), ("c", "d")],
        )
        instance = TokenDroppingInstance(graph, frozenset())
        assert run_proposal_algorithm_reference(
            instance
        ) == run_proposal_algorithm(instance)
        assert greedy_token_dropping_reference(
            instance
        ) == greedy_token_dropping(instance)

    def test_empty_and_single_node_games_agree(self):
        empty = TokenDroppingInstance(LayeredGraph(levels={}), frozenset())
        lonely = TokenDroppingInstance(
            LayeredGraph(levels={"x": 0}), frozenset({"x"})
        )
        for instance in (empty, lonely):
            ref = run_proposal_algorithm_reference(instance)
            fast = run_proposal_algorithm(instance)
            assert ref == fast
            assert ref.communication_rounds == 0
            assert greedy_token_dropping_reference(
                instance
            ) == greedy_token_dropping(instance)


class TestCompactInstancesMatchReferenceInstances:
    """compact=True emission is the same instance, so results transfer."""

    @pytest.mark.parametrize("seed", range(5))
    def test_orientation_through_compact_instance(self, seed):
        reference = layered_dag_orientation(num_levels=4, width=5, seed=seed)
        compact = layered_dag_orientation(
            num_levels=4, width=5, seed=seed, compact=True
        )
        ref, ref_stats = sequential_flip_algorithm_reference(reference)
        fast, fast_stats = sequential_flip_algorithm(compact)
        assert ref.oriented_edges() == fast.oriented_edges()
        assert ref_stats == fast_stats

    @pytest.mark.parametrize("seed", range(5))
    def test_assignment_through_compact_instance(self, seed):
        reference = uniform_assignment(num_jobs=40, num_servers=8, seed=seed)
        compact = uniform_assignment(
            num_jobs=40, num_servers=8, seed=seed, compact=True
        )
        ref, ref_stats = best_response_dynamics_reference(reference)
        fast, fast_stats = best_response_dynamics(compact)
        assert ref.choices() == fast.choices()
        assert ref_stats == fast_stats
