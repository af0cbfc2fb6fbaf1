"""The million-node scale family: streaming builders vs the dict path.

The scale scenarios (:func:`scale_layered_orientation`,
:func:`scale_token_dropping`) must be *boring* at small n: the streamed
CSR instance equals what the dict-path builders produce from the very
same edge stream, and the streamed dense game equals what interning the
equivalent :class:`TokenDroppingInstance` produces — bit for bit, so
every exactness argument of the compact kernels transfers unchanged to
the 10^6 tiers.  The construction-budget test is the satellite guard
that keeps the whole pipeline O(n + m): any reintroduced per-candidate
scan (the classic generators draw one RNG sample per *candidate*, i.e.
O(L·w²) ≈ 196M draws at the 100k tier) or per-edge dict blows through a
budget the streaming path undercuts by an order of magnitude.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from array import array

import numpy as np
import pytest

from repro.core.orientation._kernels import stable_orientation_kernel
from repro.core.token_dropping._kernels import (
    _DenseGame,
    proposal_game_kernel,
)
from repro.core.token_dropping.game import (
    TokenDroppingInstance,
    random_token_placement,
)
from repro.graphs.compact import CSR_FIELDS, CompactGraph
from repro.graphs.generators import _geometric_gaps, layered_dag_edge_arrays
from repro.graphs.layered import LayeredGraph
from repro.workloads.scenarios import (
    SCALE_TIER_PARAMS,
    scale_layered_orientation,
    scale_token_dropping,
)

#: Small-n members of the scale family (same generator, same id scheme).
SMALL = dict(num_levels=10, width=40, edge_probability=0.05, seed=3)
TEN_K = dict(num_levels=50, width=200, edge_probability=0.01, seed=11)
#: sha256 over the five CSR buffers' native int64 bytes, in CSR_FIELDS
#: order, as the from_edges build of each instance produced them.
CSR_SHA256 = {
    "10k": "57a06283dcb6924a2b005d810e7cc1b56b9d4bb0ef2ce521c174900c3c119585",
    "100k": "86b5d2ec680b5b6769976f489bb75f519adb4538af5df035fade21e6cbf81c67",
}


def assert_same_compact_graph(a: CompactGraph, b: CompactGraph) -> None:
    assert a.node_ids == b.node_ids
    assert a.index_of == b.index_of
    assert a.indptr == b.indptr
    assert a.indices == b.indices
    assert a.slot_edge == b.slot_edge
    assert a.edge_u == b.edge_u
    assert a.edge_v == b.edge_v


class TestEdgeStreamGenerator:
    def test_deterministic_and_duplicate_free(self):
        first = list(zip(*layered_dag_edge_arrays(**TEN_K)))
        second = list(zip(*layered_dag_edge_arrays(**TEN_K)))
        assert first == second
        assert len(set(first)) == len(first)

    def test_edges_connect_adjacent_levels(self):
        width = SMALL["width"]
        for child, parent in zip(*layered_dag_edge_arrays(**SMALL)):
            assert parent // width == child // width + 1

    def test_probability_extremes(self):
        assert list(zip(*layered_dag_edge_arrays(3, 4, 0.0, seed=1))) == []
        full = list(zip(*layered_dag_edge_arrays(3, 4, 1.0, seed=1)))
        assert len(full) == 2 * 16
        assert len(set(full)) == len(full)

    def test_density_tracks_probability(self):
        # Geometric-skip sampling must reproduce the Bernoulli density:
        # 49 * 200 * 200 candidates at p=0.01 give ~19,600 edges.
        m = sum(1 for _ in zip(*layered_dag_edge_arrays(**TEN_K)))
        expected = 49 * 200 * 200 * TEN_K["edge_probability"]
        assert 0.9 * expected < m < 1.1 * expected

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            list(zip(*layered_dag_edge_arrays(0, 4, 0.5)))
        with pytest.raises(ValueError):
            list(zip(*layered_dag_edge_arrays(3, 0, 0.5)))
        with pytest.raises(ValueError):
            list(zip(*layered_dag_edge_arrays(3, 4, 1.5)))


def reference_edge_arrays(num_levels, width, edge_probability, rng):
    """The scalar geometric-skip loop :func:`layered_dag_edge_arrays` replays.

    Per level, from position -1, add ``int(log(1 - random()) / log1p(-p))
    + 1`` until the position reaches ``width²``: each position below it is
    an edge, and the draw that passes it ends the level.
    """
    child, parent = array("q"), array("q")
    block = width * width
    log_skip = math.log1p(-edge_probability)
    for level in range(num_levels - 1):
        pos = -1
        while True:
            pos += int(math.log(1.0 - rng.random()) / log_skip) + 1
            if pos >= block:
                break
            child.append(level * width + pos // width)
            parent.append((level + 1) * width + pos % width)
    return child, parent


def scalar_gap(r, log_skip, block):
    return min(int(math.log(1.0 - r) / log_skip), block) + 1


#: The replay grid; the scalar oracle is kept to ~250k draws a case, so
#: the widest, densest shapes run only as far as that allows.
GRID = [
    (levels, width, p)
    for width in (1, 2, 40, 2000)
    for p in (1e-4, 0.05, 0.9, 0.999999)
    for levels in (1, 2, 50)
    if (levels - 1) * (width * width * p + 1) <= 250_000
]


class TestGeneratorReplay:
    @pytest.mark.parametrize("levels, width, p", GRID)
    def test_arrays_and_continued_stream_equal_the_scalar_loop(self, levels, width, p):
        replay_rng, loop_rng = random.Random(7), random.Random(7)
        expected = reference_edge_arrays(levels, width, p, loop_rng)
        assert layered_dag_edge_arrays(levels, width, p, seed=replay_rng) == expected
        assert replay_rng.random() == loop_rng.random()

    def test_int_seed_equals_a_random_passed_in(self):
        passed_in = dict(SMALL, seed=random.Random(SMALL["seed"]))
        assert layered_dag_edge_arrays(**SMALL) == layered_dag_edge_arrays(**passed_in)

    def test_draws_span_several_chunks(self, monkeypatch):
        from repro.graphs import generators

        monkeypatch.setattr(generators, "_MAX_CHUNK_DRAWS", 64)
        replay_rng, loop_rng = random.Random(3), random.Random(3)
        args = (SMALL["num_levels"], SMALL["width"], SMALL["edge_probability"])
        expected = reference_edge_arrays(*args, loop_rng)
        assert layered_dag_edge_arrays(*args, seed=replay_rng) == expected
        assert replay_rng.random() == loop_rng.random()

    @pytest.mark.parametrize("p, block", [(1e-4, 1), (0.05, 1600), (0.999999, 4)])
    def test_gap_at_the_ends_of_the_unit_interval(self, p, block):
        draws = [0.0, 1.0 - 2.0**-53]
        log_skip = math.log1p(-p)
        gaps = _geometric_gaps(np.array(draws), log_skip, block)
        assert gaps.tolist() == [scalar_gap(r, log_skip, block) for r in draws]

    def test_gap_on_exact_integer_quotients(self):
        # p = 1/2 and r = 1 - 2^-k give log(2^-k) / log(1/2) = k exactly,
        # where a last-bit difference in the log would move the gap.
        draws = [1.0 - 2.0**-k for k in range(1, 54)]
        log_skip = math.log1p(-0.5)
        gaps = _geometric_gaps(np.array(draws), log_skip, 1600)
        assert gaps.tolist() == [scalar_gap(r, log_skip, 1600) for r in draws]
        assert gaps.tolist() == list(range(2, 55))

    def test_gap_survives_a_log_one_ulp_off(self, monkeypatch):
        # A vector log that rounds one ulp towards zero puts each exact
        # quotient k just below k; the guard must recompute it.
        exact_log = np.log
        monkeypatch.setattr(np, "log", lambda x: np.nextafter(exact_log(x), 0.0))
        draws = [1.0 - 2.0**-k for k in range(1, 54)]
        gaps = _geometric_gaps(np.array(draws), math.log1p(-0.5), 1600)
        assert gaps.tolist() == list(range(2, 55))

    #: sha256 of ``child`` then ``parent`` bytes, and the next
    #: ``random()`` of the ``Random(seed)`` passed in, for the 100k tier's
    #: shape at three graph seeds, as the scalar loop produced them.
    HUNDRED_K = {
        1: (
            "e851f15e0cec9e890fef66e8c8fcd687942d0e062087b3d3c107334bdbb72eb9",
            0.4679914658594657,
        ),
        5: (
            "24c961f8f5bca7ae25a6ea0eedf99a0a34ddd65ec75dd4e8862959f9eb18d8d1",
            0.25146886987299444,
        ),
        11: (
            "8a40bea0f5bbed727d4e7ba25b1362799619b1460163f18cf7e7fc6a7ea45f9e",
            0.7826804671046702,
        ),
    }

    @pytest.mark.parametrize("seed", sorted(HUNDRED_K))
    def test_100k_arrays_match_the_golden_digest(self, seed):
        params = dict(SCALE_TIER_PARAMS["100k"], seed=random.Random(seed))
        rng = params["seed"]
        child, parent = layered_dag_edge_arrays(**params)
        digest = hashlib.sha256(memoryview(child).cast("B"))
        digest.update(memoryview(parent).cast("B"))
        assert (digest.hexdigest(), rng.random()) == self.HUNDRED_K[seed]


class TestScaleOrientation:
    def test_stream_equals_dict_path_at_ten_thousand_nodes(self):
        streamed = scale_layered_orientation(**TEN_K)
        edges = list(zip(*layered_dag_edge_arrays(**TEN_K)))
        n = TEN_K["num_levels"] * TEN_K["width"]
        assert streamed.num_nodes == n == 10_000
        assert_same_compact_graph(
            streamed, CompactGraph.from_edges(edges, nodes=range(n))
        )

    @pytest.mark.parametrize("tier", sorted(CSR_SHA256))
    def test_csr_buffers_match_the_golden_digest(self, tier):
        # The array builder must not move a single slot.
        params = TEN_K if tier == "10k" else SCALE_TIER_PARAMS[tier]
        graph = scale_layered_orientation(**params)
        digest = hashlib.sha256()
        for field in CSR_FIELDS:
            digest.update(memoryview(getattr(graph, field)).cast("B"))
        assert digest.hexdigest() == CSR_SHA256[tier]

    def test_isolated_nodes_survive(self):
        sparse = scale_layered_orientation(
            num_levels=4, width=50, edge_probability=0.005, seed=0
        )
        assert sparse.num_nodes == 200
        assert any(sparse.degree(i) == 0 for i in range(sparse.num_nodes))

    def test_orientation_kernel_runs_on_scale_instance(self):
        graph = scale_layered_orientation(**SMALL)
        heads, load, phases, _, _, _ = stable_orientation_kernel(graph, seed=0)
        assert all(h >= 0 for h in heads)
        assert max(load) <= graph.max_degree()


class TestScaleTokenDropping:
    def test_game_equals_interned_dict_instance(self):
        compact = scale_token_dropping(**SMALL, token_fraction=0.6)
        n = SMALL["num_levels"] * SMALL["width"]
        levels = {node: node // SMALL["width"] for node in range(n)}
        graph = LayeredGraph(
            levels=levels, edges=list(zip(*layered_dag_edge_arrays(**SMALL)))
        )
        tokens = random_token_placement(
            graph, 0.6, random.Random(f"{SMALL['seed']}:tokens")
        )
        reference, node_ids, _ = _DenseGame.from_instance(
            TokenDroppingInstance(graph, tokens)
        )
        assert compact.node_ids == node_ids
        assert compact.game.has_token == reference.has_token
        assert list(compact.game.level) == list(reference.level)
        for attr in (
            "par_ptr",
            "par_node",
            "chi_ptr",
            "chi_node",
            "chi_edge",
        ):
            assert list(getattr(compact.game, attr)) == list(
                getattr(reference, attr)
            ), attr
        assert compact.theoretical_round_bound() == TokenDroppingInstance(
            graph, tokens
        ).theoretical_round_bound()

    def test_proposal_kernel_completes_within_theorem_bound(self):
        compact = scale_token_dropping(**SMALL, token_fraction=0.6)
        max_rounds = 3 * compact.theoretical_round_bound()
        run = proposal_game_kernel(compact.game, max_rounds, tie_break="min")
        assert run.rounds <= max_rounds
        assert (run.halt_round >= 0).all()

    def test_token_fraction_validated(self):
        with pytest.raises(ValueError):
            scale_token_dropping(**SMALL, token_fraction=1.5)


#: Wall-time budget for building the 100k tier (~100k nodes / ~196k
#: edges).  The streaming path does this in roughly a second; any
#: O(L·w²) candidate scan (196M RNG draws) or per-edge dict detour takes
#: well over a minute.
CONSTRUCTION_BUDGET_SECONDS = 20.0


def test_100k_tier_construction_stays_linear():
    params = SCALE_TIER_PARAMS["100k"]
    start = time.perf_counter()
    graph = scale_layered_orientation(**params)
    elapsed = time.perf_counter() - start
    assert graph.num_nodes == 100_000
    assert graph.num_edges > 150_000
    assert elapsed < CONSTRUCTION_BUDGET_SECONDS, (
        f"100k-tier construction took {elapsed:.1f}s; the streaming "
        "pipeline must stay O(n + m) end to end"
    )
