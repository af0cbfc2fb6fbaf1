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
import random
import time

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
from repro.graphs.generators import layered_dag_edge_arrays
from repro.graphs.layered import LayeredGraph
from repro.workloads.scenarios import (
    SCALE_TIER_PARAMS,
    scale_layered_orientation,
    scale_token_dropping,
)

#: Small-n members of the scale family (same generator, same id scheme).
SMALL = dict(num_levels=10, width=40, edge_probability=0.05, seed=3)
TEN_K = dict(num_levels=50, width=200, edge_probability=0.01, seed=11)
TEN_K_CSR_SHA256 = "57a06283dcb6924a2b005d810e7cc1b56b9d4bb0ef2ce521c174900c3c119585"


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


class TestScaleOrientation:
    def test_stream_equals_dict_path_at_ten_thousand_nodes(self):
        streamed = scale_layered_orientation(**TEN_K)
        edges = list(zip(*layered_dag_edge_arrays(**TEN_K)))
        n = TEN_K["num_levels"] * TEN_K["width"]
        assert streamed.num_nodes == n == 10_000
        assert_same_compact_graph(
            streamed, CompactGraph.from_edges(edges, nodes=range(n))
        )

    def test_csr_buffers_match_the_golden_digest(self):
        # sha256 over the five CSR buffers' native int64 bytes, in
        # CSR_FIELDS order, as the from_edges build of this instance
        # produced them: the array builder must not move a single slot.
        graph = scale_layered_orientation(**TEN_K)
        digest = hashlib.sha256()
        for field in CSR_FIELDS:
            digest.update(memoryview(getattr(graph, field)).cast("B"))
        assert digest.hexdigest() == TEN_K_CSR_SHA256

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
