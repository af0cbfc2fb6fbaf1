"""Million-node scale suite: wall time *and* memory of the compact kernels.

Where the other suites race the compact kernels against the dict
reference on mid-size instances, this one answers a different question:
*do the streaming builders (``CompactGraph.from_edges`` on the
counting-sort CSR routine, and ``scale_token_dropping`` on the NumPy
token-game builder ``game_from_arrays``) and the frontier-batched
kernels actually hold up at 10^5–10^6 nodes?*
There is no dict path here — at these sizes the reference representation
is the thing being avoided — so every scenario times the compact
pipeline alone and records its peak memory:

* ``peak_mb`` (via the shared benchmark fixture) — tracemalloc peak of
  one untimed run, i.e. the algorithm's Python-heap working set;
* ``rss_peak_mb_process`` — the OS high-water mark of the whole process
  (cumulative across scenarios, so only meaningful within a tier run —
  recorded because tracemalloc cannot see non-heap allocations).

Tiers (see ``SCALE_TIER_PARAMS``): ``100k`` and ``1m`` always; the
``10m`` tier only with ``REPRO_BENCH_SCALE_XL=1`` (expect several GB of
RSS and minutes per round).  Smoke mode (``REPRO_BENCH_SMOKE=1``, the CI
matrix entry) runs the ``100k`` tier only and skips the JSON write.

Regenerate the committed ``BENCH_scale.json`` with::

    PYTHONPATH=src pytest benchmarks/bench_scale.py --benchmark-only
"""

from __future__ import annotations

import os

import pytest

from repro.core.orientation._kernels import (
    repair_kernel,
    stable_orientation_kernel,
)
from repro.core.token_dropping._kernels import proposal_game_kernel
from repro.workloads.scenarios import (
    SCALE_TIER_PARAMS,
    scale_layered_orientation,
    scale_token_dropping,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

if SMOKE:
    TIERS = ["100k"]
elif os.environ.get("REPRO_BENCH_SCALE_XL", "") == "1":
    TIERS = ["100k", "1m", "10m"]
else:
    TIERS = ["100k", "1m"]

#: One calibration-free setting for every scenario: rounds are expensive
#: here (a 1m orientation round runs for over a minute), so the suite
#: pins exactly how many pytest-benchmark takes instead of letting its
#: calibrator spend them.
BENCH_OPTS = dict(
    min_rounds=1 if SMOKE else 3,
    max_time=0.1 if SMOKE else 1.0,
    warmup=False,
)

TOKEN_FRACTION = 0.6


def _rss_peak_mb():
    """Process-wide peak RSS in MB, or None off-POSIX."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: tier -> built orientation instance, shared by the three kernel
#: scenarios so the (measured-separately) construction runs once.
_GRAPHS: dict = {}
_GAMES: dict = {}


def _graph(tier: str):
    if tier not in _GRAPHS:
        _GRAPHS[tier] = scale_layered_orientation(**SCALE_TIER_PARAMS[tier])
    return _GRAPHS[tier]


def _game(tier: str):
    if tier not in _GAMES:
        _GAMES[tier] = scale_token_dropping(
            **SCALE_TIER_PARAMS[tier], token_fraction=TOKEN_FRACTION
        )
    return _GAMES[tier]


@pytest.mark.benchmark(**BENCH_OPTS)
@pytest.mark.parametrize("tier", TIERS)
def test_scale_build_orientation(benchmark, record_rows, tier):
    """Streaming CSR construction: generator -> ``CompactGraph.from_edges``."""
    params = SCALE_TIER_PARAMS[tier]
    graph = benchmark(lambda: scale_layered_orientation(**params))
    record_rows(
        tier=tier,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        rss_peak_mb_process=_rss_peak_mb(),
    )


@pytest.mark.benchmark(**BENCH_OPTS)
@pytest.mark.parametrize("tier", TIERS)
def test_scale_orientation(benchmark, record_rows, tier):
    """Frontier-batched stable orientation at scale."""
    graph = _graph(tier)
    heads, load, phases, game_rounds, comm_rounds, _ = benchmark(
        lambda: stable_orientation_kernel(graph, seed=0)
    )
    assert all(h >= 0 for h in heads)
    record_rows(
        tier=tier,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        phases=phases,
        communication_rounds=comm_rounds,
        max_load=max(load),
        rss_peak_mb_process=_rss_peak_mb(),
    )


@pytest.mark.benchmark(**BENCH_OPTS)
@pytest.mark.parametrize("tier", TIERS)
def test_scale_repair(benchmark, record_rows, tier):
    """Synchronous repair from the seeded random orientation at scale.

    The graph is shared across rounds, so each round first drops the
    rank setup ``repair_kernel`` memoizes on it: every round pays that
    setup, as a cold ``repro.solve`` does.
    """
    graph = _graph(tier)

    def forget_rank_setup():
        for key in ("lexicographic_reprs", "directed_ranks"):
            graph.derived.pop(key, None)

    heads, load, stats = benchmark.pedantic(
        repair_kernel,
        args=(graph,),
        kwargs={"seed": 0},
        setup=forget_rank_setup,
        rounds=BENCH_OPTS["min_rounds"],
    )
    record_rows(
        tier=tier,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        iterations=stats.iterations,
        total_flips=stats.total_flips,
        rss_peak_mb_process=_rss_peak_mb(),
    )


@pytest.mark.benchmark(**BENCH_OPTS)
@pytest.mark.parametrize("tier", TIERS)
def test_scale_token_dropping(benchmark, record_rows, tier):
    """The proposal algorithm on a stream-built dense game at scale."""
    compact = _game(tier)
    max_rounds = 3 * compact.theoretical_round_bound()
    run = benchmark(
        lambda: proposal_game_kernel(compact.game, max_rounds, tie_break="min")
    )
    assert (run.halt_round >= 0).all()
    record_rows(
        tier=tier,
        num_nodes=compact.num_nodes,
        num_edges=compact.num_edges,
        game_rounds=run.rounds,
        max_round_budget=max_rounds,
        rss_peak_mb_process=_rss_peak_mb(),
    )
