"""The NumPy proposal-game round kernel against the per-node scheduler.

:func:`~repro.core.token_dropping._kernels.proposal_game_kernel` plays
the Theorem 4.1 game as vector ops over the live nodes, one LOCAL round
at a time.  An untraced ``Runner(...).run()`` takes it, and
``run_reference()`` takes the per-node state machines, so on every game
the two must agree on the per-node outputs and on the whole
:class:`~repro.local_model.metrics.ExecutionMetrics`: rounds, delivered
messages and every node's halt round.

Node ids are ints from 5 up, so from 10 on their ``repr`` order (the
reference tie-break order) is not their numeric order.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.token_dropping import ROUNDS_PER_GAME_ROUND, TokenDroppingInstance
from repro.core.token_dropping import _kernels
from repro.core.token_dropping._kernels import network_game, proposal_game_kernel
from repro.core.token_dropping.proposal import proposal_factory
from repro.graphs.layered import LayeredGraph
from repro.local_model import Runner
from repro.local_model.errors import RoundLimitExceeded

FIRST_ID = 5

#: Node 1 (level 1) holds a token and has one child, node 0, and two
#: token-holding parents, nodes 2 and 3.  In the first game round node 0
#: requests from its only candidate and node 1 grants to its only
#: requester, both count-1 draws; in the next one node 1 draws between
#: nodes 2 and 3 from a generator those draws have advanced.
ONE_CANDIDATE = ([0, 1, 2, 2], [(0, 1), (1, 2), (1, 3)], [1, 2, 3])

#: Levels and edges of a five-node game of height 2.
DIAMOND = ([0, 0, 1, 1, 2], [(0, 2), (1, 2), (1, 3), (2, 4), (3, 4)])


@st.composite
def games(draw):
    """``(levels, edges, tokens)`` over nodes ``0 .. n-1``; edges climb one level."""
    n = draw(st.integers(min_value=1, max_value=14))
    levels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = [
        (c, p) for c in range(n) for p in range(n) if levels[p] == levels[c] + 1
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    tokens = draw(st.lists(st.integers(0, n - 1), unique=True))
    return levels, edges, tokens


def network_of(levels, edges, tokens):
    """The LOCAL network of the game, with node ``i`` named ``i + FIRST_ID``."""
    graph = LayeredGraph(
        levels={i + FIRST_ID: level for i, level in enumerate(levels)},
        edges=[(c + FIRST_ID, p + FIRST_ID) for c, p in edges],
    )
    instance = TokenDroppingInstance(graph, {t + FIRST_ID for t in tokens})
    budget = ROUNDS_PER_GAME_ROUND * instance.theoretical_round_bound()
    return instance.to_network(), budget


@given(
    games(),
    st.sampled_from(["min", "max", "random"]),
    st.integers(min_value=0, max_value=3),
)
@example(([0], [], []), "min", 0)
@example(([0], [], [0]), "random", 0)
@example(([0, 1, 2, 1], [], [1, 2]), "max", 0)
@example((DIAMOND[0], DIAMOND[1], [0, 1, 2, 3, 4]), "random", 1)
@example((DIAMOND[0], DIAMOND[1], []), "min", 0)
@example(ONE_CANDIDATE, "random", 0)
@example(ONE_CANDIDATE, "random", 1)
@example(ONE_CANDIDATE, "random", 2)
@example(ONE_CANDIDATE, "random", 3)
@settings(max_examples=300, deadline=None)
def test_round_kernel_matches_reference_scheduler(game, tie_break, seed):
    network, budget = network_of(*game)
    factory = proposal_factory(tie_break=tie_break, seed=seed)
    fast = Runner(network, factory, max_rounds=budget).run()
    reference = Runner(network, factory, max_rounds=budget).run_reference()

    assert fast.outputs == reference.outputs
    assert fast.metrics == reference.metrics


@given(games(), st.sampled_from(["min", "max"]))
@settings(max_examples=100, deadline=None)
def test_pass_log_matches_end_state(game, tie_break):
    network, budget = network_of(*game)
    dense, _ = network_game(network)
    run = proposal_game_kernel(dense, budget, tie_break=tie_break)
    rounds, parent, child, token = run.passes

    # Grants happen in the second round of a game round, one per parent.
    assert (rounds % ROUNDS_PER_GAME_ROUND == 2).all()
    assert len(set(zip(rounds.tolist(), parent.tolist()))) == len(rounds)
    # Exactly the passed edges are consumed: edge e runs from
    # dense.par_node[e] down to the child whose parent row holds it.
    passed = {
        (c, dense.par_node[e])
        for c in range(dense.num_nodes)
        for e in range(dense.par_ptr[c], dense.par_ptr[c + 1])
        if run.consumed[e]
    }
    assert passed == set(zip(child.tolist(), parent.tolist()))
    # The last pass of each token leaves it where it finally sits.
    where = {t: c for t, c in zip(token.tolist(), child.tolist())}
    for t, c in where.items():
        assert run.token[c] == t
    assert (run.halt_round >= 0).all() and (run.halt_round <= run.rounds).all()


def test_round_budget_is_enforced():
    network, _ = network_of(*ONE_CANDIDATE)
    dense, _ = network_game(network)
    with pytest.raises(RoundLimitExceeded, match="round limit of 4 rounds"):
        proposal_game_kernel(dense, 4)


def test_node_generators_are_seeded_on_first_lookup(monkeypatch):
    seeded = []

    class RecordingRandom(random.Random):
        def __init__(self, seed):
            seeded.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(_kernels, "random", SimpleNamespace(Random=RecordingRandom))
    ids = (5, "x", (1, 2))
    assert _kernels._node_rngs("min", 3, ids) is None
    rngs = _kernels._node_rngs("random", 3, ids)
    assert seeded == []

    # Lookups interleaved with draws continue one stream per node.
    draws = []
    for _ in range(5):
        draws.append(rngs[2].randrange(7))
        draws.append(rngs[2].randrange(1))
    fresh = random.Random("3:(1, 2)")
    assert draws == [fresh.randrange(7 if k % 2 == 0 else 1) for k in range(10)]
    assert seeded == ["3:(1, 2)"]
