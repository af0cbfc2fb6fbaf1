"""Graph substrates and instance generators.

This subpackage contains the combinatorial structures every algorithm in
the reproduction operates on:

* :mod:`repro.graphs.layered` -- layered DAGs, the input shape of the
  token dropping game (Section 4 of the paper);
* :mod:`repro.graphs.bipartite` -- customer--server bipartite graphs used
  by stable assignments and semi-matchings (Sections 1.3 and 7);
* :mod:`repro.graphs.hypergraph` -- hypergraphs in which customers act as
  hyperedges over servers (Section 7.1);
* :mod:`repro.graphs.compact` -- CSR-style compact cores with dense
  integer ids, the substrate of the int-array algorithm kernels behind
  the public entry points;
* :mod:`repro.graphs.generators` -- reproducible generators for the
  instance families used in the paper's arguments and our experiments
  (d-regular graphs, perfect d-ary trees, random bipartite workloads,
  paths, cycles, grids, ...);
* :mod:`repro.graphs.validation` -- structural checks (degree bounds,
  regularity, girth, trees) used to validate generated instances and
  lower-bound constructions.
"""

from repro._lazy import lazy_attributes
from repro.graphs.bipartite import CustomerServerGraph
from repro.graphs.compact import (
    CompactBipartite,
    CompactGraph,
    DeltaError,
    DeltaOverlayGraph,
    intern_nodes,
)
from repro.graphs.hypergraph import Hypergraph
from repro.graphs.layered import LayeredGraph

# The generators and structural checks are built on networkx; they load on
# first use, so importing the compact substrates (the serving path) does
# not pay for networkx.
__getattr__ = lazy_attributes(
    __name__,
    {
        "repro.graphs.generators": (
            "bounded_degree_gnp",
            "caterpillar_graph",
            "complete_bipartite",
            "cycle_graph",
            "high_girth_regular_graph",
            "path_graph",
            "perfect_dary_tree",
            "random_bipartite_customer_server",
            "random_layered_graph",
            "random_regular_graph",
            "star_graph",
        ),
        "repro.graphs.validation": (
            "GraphValidationError",
            "check_girth_at_least",
            "check_is_tree",
            "check_max_degree",
            "check_perfect_dary_tree",
            "graph_girth",
            "is_regular",
            "tree_heights",
        ),
    },
)

__all__ = [
    "CompactBipartite",
    "CompactGraph",
    "CustomerServerGraph",
    "DeltaError",
    "DeltaOverlayGraph",
    "GraphValidationError",
    "intern_nodes",
    "Hypergraph",
    "LayeredGraph",
    "bounded_degree_gnp",
    "caterpillar_graph",
    "check_girth_at_least",
    "check_is_tree",
    "check_max_degree",
    "check_perfect_dary_tree",
    "complete_bipartite",
    "cycle_graph",
    "graph_girth",
    "high_girth_regular_graph",
    "is_regular",
    "path_graph",
    "perfect_dary_tree",
    "random_bipartite_customer_server",
    "random_layered_graph",
    "random_regular_graph",
    "star_graph",
    "tree_heights",
]
