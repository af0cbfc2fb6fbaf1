"""Unit tests for the compact CSR graph cores and their round-trips."""

from __future__ import annotations

import pytest

from repro.core.orientation.problem import OrientationError, OrientationProblem
from repro.graphs.bipartite import BipartiteGraphError, CustomerServerGraph
from repro.graphs.compact import (
    CSR_FIELDS,
    CompactBipartite,
    CompactGraph,
    SnapshotError,
    intern_nodes,
)
from repro.graphs.generators import (
    bounded_degree_gnp,
    random_bipartite_customer_server,
)


class TestInterning:
    def test_repr_sorted_and_invertible(self):
        ids, index_of = intern_nodes(["b", "a", "c", "a"])
        assert ids == ("a", "b", "c")
        assert [ids[index_of[x]] for x in ("a", "b", "c")] == ["a", "b", "c"]

    def test_matches_reference_node_order(self):
        problem = OrientationProblem(edges=[(10, 2), (2, 3)], nodes=[7])
        compact = CompactGraph.from_orientation_problem(problem)
        assert compact.node_ids == problem.nodes  # both repr-sorted


class TestCompactGraph:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_is_lossless(self, seed):
        graph = bounded_degree_gnp(30, 0.2, 6, seed=seed)
        problem = OrientationProblem.from_networkx(graph)
        compact = CompactGraph.from_orientation_problem(problem)
        compact._problem = None  # force a rebuild instead of the cache
        assert compact.to_orientation_problem() == problem

    def test_round_trip_keeps_isolated_nodes(self):
        problem = OrientationProblem(edges=[(1, 2)], nodes=["iso", 5])
        compact = CompactGraph.from_orientation_problem(problem)
        compact._problem = None
        rebuilt = compact.to_orientation_problem()
        assert rebuilt == problem
        assert "iso" in rebuilt.adjacency

    def test_csr_structure_matches_reference(self):
        problem = OrientationProblem.from_networkx(
            bounded_degree_gnp(20, 0.3, 5, seed=1)
        )
        compact = CompactGraph.from_orientation_problem(problem)
        assert compact.num_nodes == len(problem.nodes)
        assert compact.num_edges == problem.num_edges()
        assert compact.max_degree() == problem.max_degree()
        for i, node in enumerate(compact.node_ids):
            neighbours = {compact.node_ids[j] for j in compact.neighbors(i)}
            assert neighbours == set(problem.neighbors(node))
            assert compact.degree(i) == problem.degree(node)

    def test_edge_order_matches_reference(self):
        problem = OrientationProblem.from_networkx(
            bounded_degree_gnp(15, 0.3, 5, seed=2)
        )
        compact = CompactGraph.from_orientation_problem(problem)
        assert compact.edge_keys() == problem.edges

    def test_edge_index_lookup(self):
        problem = OrientationProblem(edges=[(1, 2), (2, 3), (3, 1)])
        compact = CompactGraph.from_orientation_problem(problem)
        for e, (u, v) in enumerate(compact.edge_keys()):
            assert compact.edge_index(u, v) == e
            assert compact.edge_index(v, u) == e  # order-insensitive

    def test_neighbors_are_a_memoryview(self):
        compact = CompactGraph.from_edges([(1, 2), (2, 3)])
        view = compact.neighbors(compact.index_of[2])
        assert isinstance(view, memoryview)
        assert sorted(view) == sorted(
            (compact.index_of[1], compact.index_of[3])
        )

    def test_from_edges_validation(self):
        with pytest.raises(OrientationError):
            CompactGraph.from_edges([(1, 1)])
        with pytest.raises(OrientationError):
            CompactGraph.from_edges([(1, 2), (2, 1)])

    def test_mixed_type_node_ids(self):
        problem = OrientationProblem(edges=[(1, "a"), ("a", (2, 3))])
        compact = CompactGraph.from_orientation_problem(problem)
        compact._problem = None
        assert compact.to_orientation_problem() == problem


def _views(graph: CompactGraph) -> dict:
    return {field: memoryview(getattr(graph, field)) for field in CSR_FIELDS}


class TestFromBuffers:
    """``from_buffers`` rebuilds a graph over external CSR buffers."""

    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip_preserves_every_buffer(self, seed):
        graph = CompactGraph.from_orientation_problem(
            OrientationProblem.from_networkx(bounded_degree_gnp(30, 0.2, 6, seed=seed))
        )
        mirror = CompactGraph.from_buffers(graph.node_ids, _views(graph))
        assert mirror.num_nodes == graph.num_nodes
        assert mirror.num_edges == graph.num_edges
        for field in CSR_FIELDS:
            assert list(getattr(mirror, field)) == list(getattr(graph, field))
        assert mirror.node_ids == graph.node_ids
        assert mirror.edge_keys() == graph.edge_keys()
        assert mirror.to_orientation_problem() == graph.to_orientation_problem()

    def test_mixed_type_ids_index_like_the_original(self):
        graph = CompactGraph.from_edges([(1, "a"), ("a", (2, 3)), (3.5, 1)])
        mirror = CompactGraph.from_buffers(list(graph.node_ids), _views(graph))
        assert mirror.node_ids == graph.node_ids
        assert mirror.index_of == graph.index_of
        for u, v in graph.edge_keys():
            assert mirror.edge_index(v, u) == graph.edge_index(u, v)

    def test_edgeless_graph(self):
        graph = CompactGraph.from_orientation_problem(
            OrientationProblem([], nodes=range(4))
        )
        mirror = CompactGraph.from_buffers(graph.node_ids, _views(graph))
        assert mirror.num_nodes == 4
        assert mirror.num_edges == 0
        assert [mirror.degree(i) for i in range(4)] == [0] * 4

    def test_buffers_are_shared_not_copied(self):
        graph = CompactGraph.from_edges([(1, 2), (2, 3)])
        views = _views(graph)
        mirror = CompactGraph.from_buffers(graph.node_ids, views)
        for field in CSR_FIELDS:
            assert getattr(mirror, field) is views[field]
        assert isinstance(mirror.neighbors(0), memoryview)

    @pytest.mark.parametrize("field", CSR_FIELDS)
    def test_missing_section_raises_snapshot_error(self, field):
        graph = CompactGraph.from_edges([(1, 2), (2, 3)])
        views = _views(graph)
        del views[field]
        with pytest.raises(SnapshotError, match=f"missing CSR sections: \\['{field}'\\]"):
            CompactGraph.from_buffers(graph.node_ids, views)

    @pytest.mark.parametrize("extra_nodes", [-1, 1])
    def test_indptr_length_must_match_node_count(self, extra_nodes):
        graph = CompactGraph.from_edges([(1, 2), (2, 3)])
        ids = list(graph.node_ids)
        ids = ids[:-1] if extra_nodes < 0 else ids + [99]
        with pytest.raises(SnapshotError, match="indptr has 4 entries"):
            CompactGraph.from_buffers(ids, _views(graph))

    @pytest.mark.parametrize("field", ["indices", "slot_edge", "edge_v"])
    def test_inconsistent_section_lengths_raise(self, field):
        graph = CompactGraph.from_edges([(1, 2), (2, 3)])
        views = _views(graph)
        views[field] = views[field][:-1]
        with pytest.raises(SnapshotError, match="inconsistent"):
            CompactGraph.from_buffers(graph.node_ids, views)


class TestCompactBipartite:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_is_lossless(self, seed):
        graph = random_bipartite_customer_server(25, 8, 3, seed=seed, server_skew=1.0)
        compact = CompactBipartite.from_customer_server_graph(graph)
        compact._graph = None  # force a rebuild instead of the cache
        assert compact.to_customer_server_graph() == graph

    def test_generator_emits_identical_compact_instance(self):
        reference = random_bipartite_customer_server(25, 8, 3, seed=4, server_skew=1.0)
        compact = random_bipartite_customer_server(
            25, 8, 3, seed=4, server_skew=1.0, compact=True
        )
        assert isinstance(compact, CompactBipartite)
        assert compact.to_customer_server_graph() == reference

    def test_csr_structure_matches_reference(self):
        graph = random_bipartite_customer_server(20, 6, 2, seed=3)
        compact = CompactBipartite.from_customer_server_graph(graph)
        assert compact.customer_ids == graph.customers
        assert compact.server_ids == graph.servers
        assert compact.num_edges == graph.num_edges()
        for ci, customer in enumerate(compact.customer_ids):
            servers = {compact.server_ids[si] for si in compact.servers_of(ci)}
            assert servers == set(graph.servers_of(customer))
        for si, server in enumerate(compact.server_ids):
            customers = {compact.customer_ids[ci] for ci in compact.customers_of(si)}
            assert customers == set(graph.customers_of(server))

    def test_rows_are_sorted_by_dense_id(self):
        compact = random_bipartite_customer_server(30, 10, 4, seed=7, compact=True)
        for ci in range(compact.num_customers):
            row = list(compact.servers_of(ci))
            assert row == sorted(row)

    def test_from_edges_validation(self):
        with pytest.raises(BipartiteGraphError):
            CompactBipartite.from_edges(["x"], ["x"], [("x", "x")])
        with pytest.raises(BipartiteGraphError):
            CompactBipartite.from_edges(["c"], ["s"], [("c", "s"), ("c", "s")])
        with pytest.raises(BipartiteGraphError):
            CompactBipartite.from_edges(["c"], ["s"], [("c", "unknown")])
        with pytest.raises(BipartiteGraphError):
            CompactBipartite.from_edges(["c", "lonely"], ["s"], [("c", "s")])

    def test_validation_matches_reference_constructor(self):
        # The compact and reference constructors accept/reject the same inputs.
        cases = [
            (["c1", "c2"], ["s1", "s2"], [("c1", "s1"), ("c2", "s1"), ("c2", "s2")]),
            (["c1"], ["s1"], [("c1", "s1")]),
        ]
        for customers, servers, edges in cases:
            compact = CompactBipartite.from_edges(customers, servers, edges)
            reference = CustomerServerGraph(customers, servers, edges)
            assert compact.to_customer_server_graph() == reference
