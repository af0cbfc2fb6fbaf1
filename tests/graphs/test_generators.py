"""Unit and property tests for the graph generators."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    bounded_degree_gnp,
    caterpillar_graph,
    check_perfect_dary_tree,
    complete_bipartite,
    cycle_graph,
    graph_girth,
    high_girth_regular_graph,
    is_regular,
    path_graph,
    perfect_dary_tree,
    random_bipartite_customer_server,
    random_layered_graph,
    random_regular_graph,
    star_graph,
    tree_heights,
)
from repro.graphs.validation import (
    GraphValidationError,
    check_girth_at_least,
    check_max_degree,
)


class TestBasicTopologies:
    def test_path(self):
        g = path_graph(5)
        assert g.number_of_nodes() == 5
        assert g.number_of_edges() == 4

    def test_path_rejects_empty(self):
        with pytest.raises(ValueError):
            path_graph(0)

    def test_cycle(self):
        g = cycle_graph(6)
        assert is_regular(g, 2)
        assert graph_girth(g) == 6

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(7)
        assert g.degree(0) == 7
        assert max(d for _, d in g.degree()) == 7

    def test_caterpillar(self):
        g = caterpillar_graph(spine=4, legs_per_node=3)
        assert g.number_of_nodes() == 4 + 12
        assert nx.is_tree(g)

    def test_caterpillar_validation(self):
        with pytest.raises(ValueError):
            caterpillar_graph(0, 1)
        with pytest.raises(ValueError):
            caterpillar_graph(2, -1)


class TestRandomGraphs:
    def test_bounded_degree_gnp_respects_cap(self, seed):
        g = bounded_degree_gnp(40, 0.3, max_degree=5, seed=seed)
        check_max_degree(g, 5)
        assert g.number_of_nodes() == 40

    def test_bounded_degree_gnp_validation(self):
        with pytest.raises(ValueError):
            bounded_degree_gnp(0, 0.5, 3)
        with pytest.raises(ValueError):
            bounded_degree_gnp(5, 1.5, 3)
        with pytest.raises(ValueError):
            bounded_degree_gnp(5, 0.5, -1)

    def test_random_regular(self, seed):
        g = random_regular_graph(3, 10, seed=seed)
        assert is_regular(g, 3)

    def test_random_regular_validation(self):
        with pytest.raises(ValueError):
            random_regular_graph(3, 3)
        with pytest.raises(ValueError):
            random_regular_graph(3, 7)  # odd product
        with pytest.raises(ValueError):
            random_regular_graph(-1, 4)

    def test_random_regular_reproducible(self):
        g1 = random_regular_graph(3, 12, seed=7)
        g2 = random_regular_graph(3, 12, seed=7)
        assert set(g1.edges()) == set(g2.edges())

    def test_high_girth_regular(self):
        g = high_girth_regular_graph(3, 30, girth=5, seed=1)
        assert is_regular(g, 3)
        check_girth_at_least(g, 5)

    def test_high_girth_validation(self):
        with pytest.raises(ValueError):
            high_girth_regular_graph(3, 30, girth=2)


class TestTrees:
    def test_perfect_dary_tree_structure(self):
        g, root = perfect_dary_tree(3, 3)
        depth = check_perfect_dary_tree(g, 3, root)
        assert depth == 3
        assert nx.is_tree(g)

    def test_perfect_dary_tree_size(self):
        # degree-3 tree of depth 2: root(1) + 3 + 3*2 = 10 nodes
        g, _ = perfect_dary_tree(3, 2)
        assert g.number_of_nodes() == 10

    def test_perfect_dary_tree_depth_zero(self):
        g, root = perfect_dary_tree(4, 0)
        assert g.number_of_nodes() == 1
        assert check_perfect_dary_tree(g, 4, root) == 0

    def test_perfect_dary_tree_validation(self):
        with pytest.raises(ValueError):
            perfect_dary_tree(1, 2)
        with pytest.raises(ValueError):
            perfect_dary_tree(3, -1)

    def test_tree_heights(self):
        g, root = perfect_dary_tree(3, 2)
        heights = tree_heights(g)
        assert heights[root] == 2
        leaves = [n for n in g.nodes() if g.degree(n) == 1]
        assert all(heights[leaf] == 0 for leaf in leaves)

    def test_check_perfect_dary_tree_detects_imperfection(self):
        g, root = perfect_dary_tree(3, 2)
        # Remove a leaf: leaves now at multiple depths or degree broken.
        leaf = next(n for n in g.nodes() if g.degree(n) == 1 and n != root)
        g.remove_node(leaf)
        with pytest.raises(GraphValidationError):
            check_perfect_dary_tree(g, 3, root)


class TestBipartiteWorkloads:
    def test_complete_bipartite(self):
        csg = complete_bipartite(3, 4)
        assert csg.max_customer_degree() == 4
        assert csg.max_server_degree() == 3
        assert csg.num_edges() == 12

    def test_random_bipartite_degrees(self, seed):
        csg = random_bipartite_customer_server(
            num_customers=20, num_servers=8, customer_degree=3, seed=seed
        )
        assert all(csg.customer_degree(c) == 3 for c in csg.customers)
        assert csg.max_customer_degree() == 3

    def test_random_bipartite_skew_concentrates_load(self):
        skewed = random_bipartite_customer_server(
            num_customers=60, num_servers=12, customer_degree=2, seed=5, server_skew=2.0
        )
        uniform = random_bipartite_customer_server(
            num_customers=60, num_servers=12, customer_degree=2, seed=5, server_skew=0.0
        )
        top_skewed = max(skewed.server_degree(s) for s in skewed.servers)
        top_uniform = max(uniform.server_degree(s) for s in uniform.servers)
        assert top_skewed >= top_uniform

    def test_random_bipartite_validation(self):
        with pytest.raises(ValueError):
            random_bipartite_customer_server(0, 5, 2)
        with pytest.raises(ValueError):
            random_bipartite_customer_server(5, 5, 6)
        with pytest.raises(ValueError):
            random_bipartite_customer_server(5, 5, 2, server_skew=-1)


class TestLayeredGenerators:
    def test_random_layered_graph_levels(self, seed):
        lg = random_layered_graph(4, 5, 0.5, seed=seed)
        assert lg.height() == 3
        assert len(lg) == 20
        for child, parent in lg.edges:
            assert lg.level(parent) == lg.level(child) + 1

    def test_random_layered_graph_degree_cap(self, seed):
        lg = random_layered_graph(4, 6, 0.9, seed=seed, max_degree=3)
        assert lg.max_degree() <= 3

    def test_random_layered_graph_validation(self):
        with pytest.raises(ValueError):
            random_layered_graph(0, 3, 0.5)
        with pytest.raises(ValueError):
            random_layered_graph(3, 0, 0.5)
        with pytest.raises(ValueError):
            random_layered_graph(3, 3, 1.5)


class TestGeneratorProperties:
    @given(
        degree=st.integers(min_value=2, max_value=5),
        n=st.integers(min_value=6, max_value=30),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_regular_always_regular(self, degree, n):
        if n <= degree or (degree * n) % 2 != 0:
            return
        g = random_regular_graph(degree, n, seed=0)
        assert is_regular(g, degree)

    @given(
        levels=st.integers(min_value=1, max_value=5),
        width=st.integers(min_value=1, max_value=5),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_layered_always_valid(self, levels, width, p):
        lg = random_layered_graph(levels, width, p, seed=3)
        for child, parent in lg.edges:
            assert lg.level(parent) == lg.level(child) + 1
