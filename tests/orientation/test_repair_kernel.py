"""The NumPy repair kernel against its dict reference.

:func:`~repro.core.orientation._kernels.repair_kernel` draws its initial
coins by replaying the seeded generator's MT19937 stream in NumPy and
then runs each synchronous repair iteration on arrays.  These tests pin
both to the reference: the coin replay draws the same booleans and
leaves the generator in the same state across the 624-word twist, and
the whole run (heads, loads and every :class:`RepairRunStats` field)
equals :func:`synchronous_repair_orientation_reference` on random small
graphs, seeds, initial orientations, custom-``repr`` ids and iteration
budgets too small to finish.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orientation import (
    OrientationProblem,
    synchronous_repair_orientation,
    synchronous_repair_orientation_reference,
)
from repro.core.orientation._kernels import _coin_flips, repair_kernel
from repro.core.orientation.problem import arbitrary_complete_orientation
from repro.graphs.compact import CompactGraph


@dataclass(frozen=True, repr=False)
class Bang:
    """A node id whose ``repr`` continues a shorter one with ``"!"``."""

    text: str

    def __repr__(self) -> str:
        return self.text


#: Node id families: builtin ids pass the predicate P of
#: ``CompactGraph.lexicographic_reprs``; ``"v"``, ``"v!"``, ``"v!!"``, ...
#: fail it (``"!"`` sorts below ``","``), so the string-rank branch runs.
ID_FAMILIES = {
    "int": lambda i: i,
    "str": lambda i: f"n{i}",
    "bang": lambda i: Bang("v" + "!" * i),
}


@st.composite
def repair_cases(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    family = draw(st.sampled_from(sorted(ID_FAMILIES)))
    ids = [ID_FAMILIES[family](i) for i in range(n)]
    problem = OrientationProblem(nodes=ids, edges=[(ids[i], ids[j]) for i, j in chosen])
    initial_seed = draw(st.none() | st.integers(min_value=0, max_value=10**6))
    max_iterations = draw(st.none() | st.integers(min_value=0, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return family, problem, initial_seed, max_iterations, seed


@given(case=repair_cases())
@settings(max_examples=120, deadline=None)
def test_repair_matches_the_dict_reference(case):
    family, problem, initial_seed, max_iterations, seed = case
    graph = CompactGraph.from_orientation_problem(problem)
    assert graph.lexicographic_reprs() is (family != "bang")
    initial = (
        None
        if initial_seed is None
        else arbitrary_complete_orientation(
            problem, rng=random.Random(initial_seed), towards="random"
        )
    )
    kwargs = dict(initial=initial, seed=seed, max_iterations=max_iterations)
    try:
        ref, ref_stats = synchronous_repair_orientation_reference(problem, **kwargs)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="exceeded"):
            synchronous_repair_orientation(problem, **kwargs)
        return
    fast, fast_stats = synchronous_repair_orientation(problem, **kwargs)
    assert fast.oriented_edges() == ref.oriented_edges()
    assert fast.loads() == ref.loads()
    assert fast_stats == ref_stats

    # The bare kernel on the compact graph: the same dense arrays.
    heads, load, stats = repair_kernel(
        graph,
        seed=seed,
        max_iterations=max_iterations,
        initial_heads=None if initial is None else initial.to_arrays(graph)[0],
    )
    assert (heads, load) == ref.to_arrays(graph)
    assert all(type(x) is int for x in heads + load)
    assert stats == ref_stats


def test_the_iteration_budget_is_enforced():
    problem = OrientationProblem(edges=[(0, i) for i in range(1, 8)])
    initial = arbitrary_complete_orientation(problem, towards="min")
    with pytest.raises(RuntimeError, match="exceeded 0 iterations"):
        synchronous_repair_orientation(problem, initial=initial, max_iterations=0)
    _, stats = synchronous_repair_orientation(problem, initial=initial)
    assert stats.iterations > 0


@pytest.mark.parametrize("warmup", [0, 5])
@pytest.mark.parametrize("count", [0, 1, 311, 312, 313, 624, 10007])
def test_coin_replay_is_exact_across_the_twist(count, warmup):
    twin = random.Random(7)
    rng = random.Random(7)
    for _ in range(warmup):
        twin.random()
        rng.random()
    expected = [twin.random() < 0.5 for _ in range(count)]
    coins = _coin_flips(rng, count)
    assert coins.dtype == bool
    assert coins.tolist() == expected
    assert rng.getstate() == twin.getstate()
    assert rng.random() == twin.random()


def test_rank_setup_leaves_only_the_keys_the_scale_bench_drops():
    # ``benchmarks/bench_scale.py::test_scale_repair`` pops exactly these
    # two memo keys before every round, so that each round pays the rank
    # setup a cold ``repro.solve`` pays; a third key would be silently
    # carried over between rounds.  The builder sets the predicate P memo.
    graph = CompactGraph.from_edges(
        [(i, i + 1) for i in range(39)] + [(i, i + 5) for i in range(35)]
    )
    assert graph.derived == {"lexicographic_reprs": True}
    repair_kernel(graph, seed=1)
    assert set(graph.derived) == {"lexicographic_reprs", "directed_ranks"}
