"""The NumPy three-level round kernel against the per-node scheduler.

:func:`~repro.core.token_dropping._kernels.three_level_game_kernel`
plays the Theorem 4.7 game as vector ops over the live nodes, one LOCAL
round at a time.  An untraced ``Runner(...).run()`` takes it, and
``run_reference()`` takes the per-node state machines, so on every game
of two or three levels the two must agree on the per-node outputs, on
the whole :class:`~repro.local_model.metrics.ExecutionMetrics` (rounds,
delivered messages and every node's halt round) and, one round short of
the budget, on the :class:`~repro.local_model.errors.RoundLimitExceeded`
they raise.  Both refuse a taller game before round 0.

Node ids are ints from 5 up, so from 10 on their ``repr`` order (the
reference tie-break order) is not their numeric order.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.token_dropping import ROUNDS_PER_GAME_ROUND, TokenDroppingInstance
from repro.core.token_dropping._kernels import (
    network_game,
    three_level_game_kernel,
)
from repro.core.token_dropping.three_level import (
    UnsupportedHeightError,
    theoretical_three_level_bound,
    three_level_factory,
)
from repro.graphs.layered import LayeredGraph
from repro.local_model import Runner
from repro.local_model.errors import RoundLimitExceeded
from repro.workloads import random_token_dropping

FIRST_ID = 5

#: Two token-holding level-2 nodes (3, 4) over two level-1 nodes, one
#: occupied (1) and one not (2), over one free level-0 node (0): in the
#: first game round node 2 draws between both parents while node 1
#: proposes to node 0.
SHUTTLE = ([0, 1, 1, 2, 2], [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4)], [1, 3, 4])

#: Two occupied level-1 nodes (1, 2) propose to one free level-0 node
#: (0), which accepts one of them.
RIVALS = ([0, 1, 1], [(0, 1), (0, 2)], [1, 2])


@st.composite
def games(draw):
    """``(levels, edges, tokens)`` of 2 or 3 levels; edges climb one level."""
    height = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=1, max_value=14))
    levels = draw(st.lists(st.integers(0, height), min_size=n, max_size=n))
    pairs = [
        (c, p) for c in range(n) for p in range(n) if levels[p] == levels[c] + 1
    ]
    # Per-pair and per-node coin flips keep the games dense enough that
    # nodes often choose between several requests or offers.
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, keep in zip(pairs, kept) if keep]
    held = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    tokens = [i for i in range(n) if held[i]]
    return levels, edges, tokens


def network_of(levels, edges, tokens):
    """The LOCAL network of the game, with node ``i`` named ``i + FIRST_ID``."""
    graph = LayeredGraph(
        levels={i + FIRST_ID: level for i, level in enumerate(levels)},
        edges=[(c + FIRST_ID, p + FIRST_ID) for c, p in edges],
    )
    instance = TokenDroppingInstance(graph, {t + FIRST_ID for t in tokens})
    budget = ROUNDS_PER_GAME_ROUND * theoretical_three_level_bound(instance)
    return instance.to_network(include_levels=True), budget


@given(
    games(),
    st.sampled_from(["min", "max", "random"]),
    st.integers(min_value=0, max_value=3),
)
@example(([0], [], []), "min", 0)
@example(([1], [], [0]), "random", 0)
@example(([0, 1, 2, 1], [], [1, 2]), "max", 0)
@example((SHUTTLE[0], SHUTTLE[1], []), "random", 0)
@example(SHUTTLE, "min", 0)
@example(SHUTTLE, "max", 0)
@example(SHUTTLE, "random", 0)
@example(SHUTTLE, "random", 1)
@example(RIVALS, "min", 0)
@example(RIVALS, "max", 0)
@example(RIVALS, "random", 0)
@example(RIVALS, "random", 2)
@settings(max_examples=300, deadline=None)
def test_round_kernel_matches_reference_scheduler(game, tie_break, seed):
    network, budget = network_of(*game)
    factory = three_level_factory(tie_break=tie_break, seed=seed)
    fast = Runner(network, factory, max_rounds=budget).run()
    reference = Runner(network, factory, max_rounds=budget).run_reference()

    assert fast.outputs == reference.outputs
    assert fast.metrics == reference.metrics


@given(games(), st.sampled_from(["min", "max", "random"]))
@example(SHUTTLE, "random")
@example(RIVALS, "min")
@settings(max_examples=150, deadline=None)
def test_round_budget_one_short_raises_like_the_reference(game, tie_break):
    network, budget = network_of(*game)
    factory = three_level_factory(tie_break=tie_break, seed=1)
    rounds = Runner(network, factory, max_rounds=budget).run().metrics.rounds
    assume(rounds > 0)
    short = Runner(network, factory, max_rounds=rounds - 1)
    with pytest.raises(RoundLimitExceeded) as fast:
        short.run()
    with pytest.raises(RoundLimitExceeded) as reference:
        short.run_reference()

    assert fast.value.limit == reference.value.limit == rounds - 1
    assert fast.value.active_nodes == reference.value.active_nodes > 0


#: Taller networks, which both executions refuse before round 0.
#: Without that guard the level-2 rule would halt node 2 once unoccupied
#: although its parent, node 3, is alive, and in the second game node 4
#: (level 4) would wait for its unoccupied child, which waits for it.
#: The random height-4 game spun to the round limit on both executions.
TALLER = [
    network_of([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)], [2, 3])[0],
    network_of([0, 1, 2, 3, 4], [(0, 1), (1, 2), (2, 3), (3, 4)], [4])[0],
    random_token_dropping(
        num_levels=5, width=4, edge_probability=0.6, token_fraction=0.5, seed=0
    ).to_network(include_levels=True),
]


@pytest.mark.parametrize("tie_break", ["min", "max", "random"])
@pytest.mark.parametrize("network", TALLER)
def test_taller_networks_are_refused_like_the_reference(network, tie_break):
    factory = three_level_factory(tie_break=tie_break, seed=2)
    runner = Runner(network, factory, max_rounds=300)
    with pytest.raises(UnsupportedHeightError):
        runner.run()
    with pytest.raises(UnsupportedHeightError):
        runner.run_reference()


def test_pass_log_of_the_shuttle_game():
    network, budget = network_of(*SHUTTLE)
    game, ids = network_game(network)
    run = three_level_game_kernel(game, budget)
    rounds, giver, taker, token = run.passes.tolist()

    # Game round 1: node 2 requests from node 3, which grants it its
    # token, while node 0 accepts node 1's.  Then nodes 0 and 3 halt,
    # which strands nodes 1 and 2, and node 4 keeps its token.
    assert [ids[i] - FIRST_ID for i in giver] == [3, 1]
    assert [ids[i] - FIRST_ID for i in taker] == [2, 0]
    assert [ids[i] - FIRST_ID for i in token] == [3, 1]
    assert rounds == [2, 2]
    assert run.consumed.sum() == 2
    assert run.token.tolist() == [1, -1, 3, -1, 4]
    assert run.halt_round.tolist() == [3, 6, 6, 3, 9]
    assert run.rounds == 9
