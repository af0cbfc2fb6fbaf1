"""``from_edges`` against the dict reference structures, and ``_csr`` itself.

:meth:`CompactGraph.from_edges` and :meth:`CompactBipartite.from_edges`
consume their edge iterables straight into flat arrays and counting-sort
them into CSR with :func:`repro.graphs.compact._csr`, so million-edge
instances never pay for a per-edge dict, tuple list, or networkx graph.
These tests pin the result to the reference representations rather than
to a second builder:

* node order is ``OrientationProblem.nodes``, edge order is ``.edges``,
  and each CSR row holds the node's dense neighbours ascending with the
  matching ``slot_edge``;
* each bipartite CSR direction is the sorted dense adjacency of
  :class:`CustomerServerGraph`;
* both builders reject exactly what the reference constructors reject.

The cases cover seeded instances up to n=10^4 plus the inputs a counting
sort could plausibly get wrong: duplicate edges, isolated nodes, empty
input, stream order, and mixed-type ids whose ordering exercises the
repr-key assembly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orientation.problem import (
    OrientationError,
    OrientationProblem,
    edge_key,
)
from repro.graphs.bipartite import BipartiteGraphError, CustomerServerGraph
from repro.graphs.compact import CompactBipartite, CompactGraph, _csr
from repro.graphs.generators import (
    bounded_degree_gnp,
    random_bipartite_customer_server,
    random_layered_graph,
)


def _row(indptr, values, i):
    return list(values[indptr[i] : indptr[i + 1]])


def assert_matches_problem(compact: CompactGraph, problem: OrientationProblem):
    """Node order, edge order and every CSR row agree with the reference."""
    nodes, edges = problem.nodes, problem.edges
    assert compact.node_ids == nodes
    assert compact.index_of == {node: i for i, node in enumerate(nodes)}
    assert compact.edge_keys() == edges
    edge_of = {key: e for e, key in enumerate(edges)}
    index_of = compact.index_of
    for i, node in enumerate(nodes):
        neighbours = sorted(index_of[x] for x in problem.neighbors(node))
        assert _row(compact.indptr, compact.indices, i) == neighbours
        assert _row(compact.indptr, compact.slot_edge, i) == [
            edge_of[edge_key(node, nodes[j])] for j in neighbours
        ]
    assert len(compact.indptr) == len(nodes) + 1
    assert compact.indptr[-1] == 2 * len(edges)


def assert_matches_graph(compact: CompactBipartite, graph: CustomerServerGraph):
    """Both CSR directions are the reference adjacency, sorted."""
    assert compact.customer_ids == graph.customers
    assert compact.server_ids == graph.servers
    assert compact.customer_index == {c: i for i, c in enumerate(graph.customers)}
    assert compact.server_index == {s: i for i, s in enumerate(graph.servers)}
    for ci, customer in enumerate(graph.customers):
        assert _row(compact.cust_indptr, compact.cust_indices, ci) == sorted(
            compact.server_index[s] for s in graph.servers_of(customer)
        )
    for si, server in enumerate(graph.servers):
        assert _row(compact.serv_indptr, compact.serv_indices, si) == sorted(
            compact.customer_index[c] for c in graph.customers_of(server)
        )
    assert compact.num_edges == graph.num_edges()


def assert_same_arrays(a: CompactGraph, b: CompactGraph) -> None:
    for field in ("indptr", "indices", "slot_edge", "edge_u", "edge_v"):
        assert getattr(a, field) == getattr(b, field), field
    assert a.node_ids == b.node_ids


class TestCompactGraphFromEdges:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_on_gnp(self, seed):
        graph = bounded_degree_gnp(60, 0.15, 7, seed=seed)
        edges = list(graph.edges())
        nodes = list(graph.nodes())
        assert_matches_problem(
            CompactGraph.from_edges(iter(edges), nodes=nodes),
            OrientationProblem(edges, nodes=nodes),
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_on_layered_dag(self, seed):
        graph = random_layered_graph(
            num_levels=12, width=25, edge_probability=0.1, seed=seed
        )
        assert_matches_problem(
            CompactGraph.from_edges(iter(graph.edges), nodes=graph.nodes),
            OrientationProblem(graph.edges, nodes=graph.nodes),
        )

    def test_matches_reference_at_ten_thousand_nodes(self):
        # The E1 head-to-head family at n=10^4.
        graph = random_layered_graph(
            num_levels=50, width=200, edge_probability=0.02, seed=2
        )
        assert len(graph.nodes) == 10_000
        assert_matches_problem(
            CompactGraph.from_edges(iter(graph.edges), nodes=graph.nodes),
            OrientationProblem(graph.edges, nodes=graph.nodes),
        )

    def test_edge_order_independence(self):
        # The reference sorts edges by canonical-key repr, so the stream
        # order must not leak into the result.
        edges = [(3, 1), (1, 2), (10, 2), (7, 3)]
        forward = CompactGraph.from_edges(edges)
        assert_matches_problem(forward, OrientationProblem(edges))
        assert_same_arrays(CompactGraph.from_edges(reversed(edges)), forward)

    def test_mixed_type_ids(self):
        edges = [(1, "a"), ("a", (2, 3)), ((2, 3), 1), ("b", 1)]
        nodes = ["iso", 99]
        assert_matches_problem(
            CompactGraph.from_edges(iter(edges), nodes=nodes),
            OrientationProblem(edges, nodes=nodes),
        )

    def test_isolated_nodes_survive(self):
        compact = CompactGraph.from_edges([(1, 2)], nodes=["iso", 5, 1])
        assert_matches_problem(
            compact, OrientationProblem([(1, 2)], nodes=["iso", 5, 1])
        )
        assert compact.degree(compact.index_of["iso"]) == 0
        assert compact.num_edges == 1

    def test_empty_input(self):
        empty = CompactGraph.from_edges(iter(()))
        assert empty.num_nodes == 0
        assert empty.num_edges == 0
        assert list(empty.indptr) == [0]
        only_nodes = CompactGraph.from_edges(iter(()), nodes=[2, 1])
        assert_matches_problem(only_nodes, OrientationProblem([], nodes=[2, 1]))

    def test_duplicate_edges_rejected_with_reference_message(self):
        edges = [(1, 2), (3, 2), (2, 1)]
        with pytest.raises(OrientationError) as compact_err:
            CompactGraph.from_edges(iter(edges))
        with pytest.raises(OrientationError) as reference_err:
            OrientationProblem(edges)
        assert str(compact_err.value) == str(reference_err.value)

    def test_self_loops_rejected(self):
        with pytest.raises(OrientationError):
            CompactGraph.from_edges(iter([(1, 2), (3, 3)]))

    def test_round_trip_through_reference_problem(self):
        graph = bounded_degree_gnp(40, 0.2, 6, seed=9)
        compact = CompactGraph.from_edges(iter(graph.edges()), nodes=graph.nodes())
        problem = compact.to_orientation_problem()
        assert problem.edges == compact.edge_keys()
        assert tuple(problem.nodes) == compact.node_ids


class TestCompactBipartiteFromEdges:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_on_seeded_instances(self, seed):
        graph = random_bipartite_customer_server(
            40, 12, 3, seed=seed, server_skew=1.0
        )
        customers = list(graph.customer_adjacency)
        servers = list(graph.server_adjacency)
        assert_matches_graph(
            CompactBipartite.from_edges(customers, servers, iter(graph.edges())),
            graph,
        )

    def test_mixed_type_ids(self):
        customers = [1, "c", (2, 3)]
        servers = ["s1", 9]
        edges = [(1, "s1"), ("c", 9), ((2, 3), "s1"), ((2, 3), 9)]
        assert_matches_graph(
            CompactBipartite.from_edges(customers, servers, iter(edges)),
            CustomerServerGraph(customers, servers, edges),
        )

    def test_empty_sides_and_stream(self):
        compact = CompactBipartite.from_edges([], [], iter(()))
        assert compact.num_customers == 0
        assert compact.num_servers == 0
        assert compact.num_edges == 0
        # Servers may be isolated; customers may not.
        spare = CompactBipartite.from_edges(["c"], ["s", "spare"], [("c", "s")])
        assert_matches_graph(
            spare, CustomerServerGraph(["c"], ["s", "spare"], [("c", "s")])
        )
        assert spare.server_degree(spare.server_index["spare"]) == 0

    def test_validation_matches_reference(self):
        cases = [
            (["x"], ["x"], [("x", "x")]),  # overlap
            (["c"], ["s"], [("c", "s"), ("c", "s")]),  # duplicate
            (["c"], ["s"], [("c", "unknown")]),  # unknown server
            (["c"], ["s"], [("missing", "s")]),  # unknown customer
            (["c", "lonely"], ["s"], [("c", "s")]),  # isolated customer
            (["c"], ["s"], [("c", "s", "extra")]),  # malformed edge
        ]
        for customers, servers, edges in cases:
            with pytest.raises(BipartiteGraphError):
                CompactBipartite.from_edges(customers, servers, iter(edges))
            with pytest.raises(BipartiteGraphError):
                CustomerServerGraph(customers, servers, edges)


@st.composite
def _arcs(draw):
    n_rows = draw(st.integers(min_value=0, max_value=12))
    n_cols = draw(st.integers(min_value=0, max_value=12))
    if n_rows == 0 or n_cols == 0:
        return n_rows, n_cols, [], []
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_rows - 1),
                st.integers(min_value=0, max_value=n_cols - 1),
            ),
            max_size=60,
        )
    )
    return n_rows, n_cols, [r for r, _ in pairs], [c for _, c in pairs]


@settings(max_examples=200, deadline=None)
@given(_arcs())
def test_csr_is_a_stable_row_column_counting_sort(arcs):
    n_rows, n_cols, rows, cols = arcs
    indptr, indices, source = _csr(n_rows, n_cols, rows, cols)
    # ``source`` is a permutation of the input positions that sorts the
    # arcs by (row, col), ties kept in input order.
    by_row_col = sorted(range(len(rows)), key=lambda k: (rows[k], cols[k]))
    assert list(source) == by_row_col
    assert list(indices) == [cols[k] for k in source]
    # ``indptr`` is the running sum of the row counts.
    assert len(indptr) == n_rows + 1
    assert indptr[0] == 0
    for r in range(n_rows):
        assert indptr[r + 1] - indptr[r] == rows.count(r)
        assert all(rows[k] == r for k in source[indptr[r] : indptr[r + 1]])
