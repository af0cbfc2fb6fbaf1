"""Named, reproducible workload scenarios.

Examples and benchmarks share these builders so that the numbers printed
by ``examples/*.py`` and the rows regenerated by ``benchmarks/*.py`` come
from identical instances.  Every scenario takes an explicit ``seed``.

Scenario families
-----------------
* *Datacenter assignment* -- customers (jobs) pick among a few racks of
  servers with Zipf-skewed popularity; the motivating workload of the
  introduction's customers-and-servers story.
* *Sensor-network orientation* -- bounded-degree random geometric-ish
  graphs standing in for radio networks whose edges (interference pairs)
  must be oriented with balanced load.
* *Token dropping games* -- random layered DAGs with configurable height,
  width and token density (experiment E1), plus the paper's Figure 2 game.
* *Adversarial instances* -- the lower-bound families of Section 6 and
  Theorem 4.6.

Compact emission
----------------
Every orientation and assignment builder takes ``compact=True`` to emit
the :mod:`repro.graphs.compact` CSR form of the *same* instance (same
nodes, same edges, same seed-determinism) instead of the reference dict
structure, so benchmarks and engine measures can feed the fast-path
kernels without re-representing anything.  Orientation builders stream
their edges into :meth:`CompactGraph.from_edges`, which counting-sorts
them into CSR.  The compact-only scale family has dense int ids, so it
samples its edges in NumPy into two flat ``array('q')`` buffers
(:func:`~repro.graphs.generators.layered_dag_edge_arrays`):
:func:`scale_layered_orientation` sorts them into CSR with the NumPy
:meth:`CompactGraph.from_arrays`, and :func:`scale_token_dropping` hands
them to :func:`~repro.core.token_dropping._kernels.game_from_arrays`,
the one dense token-game builder.  Token games at the sizes the LOCAL
simulator runs stay :class:`TokenDroppingInstance` objects: their
kernels intern the network once and memoize the dense game, built by
the same function, on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple, Union

import networkx as nx

from repro.core.orientation.problem import OrientationProblem
from repro import obs
from repro.graphs.compact import CompactBipartite, CompactGraph, int_repr_order
from repro.core.token_dropping.game import (
    TokenDroppingInstance,
    figure2_instance,
    proposal_round_budget,
    random_token_placement,
)
from repro.core.token_dropping._kernels import game_from_arrays
from repro.graphs.bipartite import CustomerServerGraph
from repro.graphs.generators import (
    bounded_degree_gnp,
    bounded_degree_gnp_edges,
    caterpillar_graph,
    layered_dag_edge_arrays,
    layered_dag_edges,
    random_bipartite_customer_server,
    random_layered_graph,
    random_regular_graph,
)

NodeId = Hashable

#: Return type of the orientation scenario builders.
OrientationInstance = Union[OrientationProblem, CompactGraph]
#: Return type of the assignment scenario builders.
AssignmentInstance = Union[CustomerServerGraph, CompactBipartite]


def _orientation_instance(graph: nx.Graph, compact: bool) -> OrientationInstance:
    """Emit a networkx topology as a reference or compact orientation instance."""
    if compact:
        return CompactGraph.from_edges(graph.edges(), nodes=graph.nodes())
    return OrientationProblem.from_networkx(graph)


# ----------------------------------------------------------------------
# Assignment workloads
# ----------------------------------------------------------------------
def datacenter_assignment(
    *,
    num_jobs: int = 200,
    num_servers: int = 40,
    replicas: int = 3,
    popularity_skew: float = 1.2,
    seed: int = 0,
    compact: bool = False,
) -> AssignmentInstance:
    """Jobs choosing among ``replicas`` candidate servers with skewed popularity.

    ``replicas`` is C (the customer degree); the skew concentrates
    candidate sets on a few popular servers so naive assignment overloads
    them while a stable assignment spreads the load.
    """
    return random_bipartite_customer_server(
        num_customers=num_jobs,
        num_servers=num_servers,
        customer_degree=min(replicas, num_servers),
        seed=seed,
        server_skew=popularity_skew,
        compact=compact,
    )


def uniform_assignment(
    *,
    num_jobs: int = 200,
    num_servers: int = 40,
    replicas: int = 3,
    seed: int = 0,
    compact: bool = False,
) -> AssignmentInstance:
    """The unskewed control for :func:`datacenter_assignment`."""
    return random_bipartite_customer_server(
        num_customers=num_jobs,
        num_servers=num_servers,
        customer_degree=min(replicas, num_servers),
        seed=seed,
        server_skew=0.0,
        compact=compact,
    )


# ----------------------------------------------------------------------
# Orientation workloads
# ----------------------------------------------------------------------
def sensor_network_orientation(
    *,
    num_nodes: int = 120,
    max_degree: int = 8,
    density: float = 0.08,
    seed: int = 0,
    compact: bool = False,
) -> OrientationInstance:
    """A bounded-degree random graph standing in for a radio/sensor network.

    The ``compact=True`` path builds the CSR instance straight from the
    generator's edge stream — no networkx graph is ever materialised —
    while staying the *same* seeded instance as the reference path (the
    stream consumes the RNG exactly like :func:`bounded_degree_gnp`).
    """
    if compact:
        return CompactGraph.from_edges(
            bounded_degree_gnp_edges(
                num_nodes, density, max_degree=max_degree, seed=seed
            ),
            nodes=range(num_nodes),
        )
    graph = bounded_degree_gnp(num_nodes, density, max_degree=max_degree, seed=seed)
    return _orientation_instance(graph, compact)


def regular_orientation(
    *, degree: int = 6, num_nodes: int = 60, seed: int = 0, compact: bool = False
) -> OrientationInstance:
    """A d-regular orientation instance (the sweep axis of experiment E4)."""
    if (degree * num_nodes) % 2 == 1:
        num_nodes += 1
    graph = random_regular_graph(degree, num_nodes, seed=seed)
    return _orientation_instance(graph, compact)


def caterpillar_orientation(
    *, spine: int = 30, legs: int = 4, compact: bool = False
) -> OrientationInstance:
    """A skewed tree workload where the spine nodes are natural hot spots."""
    return _orientation_instance(caterpillar_graph(spine, legs), compact)


def long_path_orientation(
    *, length: int = 200, compact: bool = False
) -> OrientationInstance:
    """A path: the workload on which sequential flip chains are longest."""
    return _orientation_instance(nx.path_graph(length), compact)


def layered_dag_orientation(
    *,
    num_levels: int = 6,
    width: int = 8,
    edge_probability: float = 0.4,
    max_degree: Optional[int] = None,
    seed: int = 0,
    compact: bool = False,
) -> OrientationInstance:
    """The E1 random layered DAG, undirected, as an orientation instance.

    Uses the same generator (and the same seeding discipline) as
    :func:`random_token_dropping`, so orientation kernels can be
    benchmarked head-to-head on the paper's layered-DAG instance family
    at any scale.
    """
    rng = random.Random(seed)
    if compact:
        return CompactGraph.from_edges(
            layered_dag_edges(
                num_levels, width, edge_probability, seed=rng, max_degree=max_degree
            ),
            nodes=(
                (level, index)
                for level in range(num_levels)
                for index in range(width)
            ),
        )
    graph = random_layered_graph(
        num_levels, width, edge_probability, seed=rng, max_degree=max_degree
    )
    return OrientationProblem(edges=graph.edges, nodes=graph.levels.keys())


#: Fixed parameters of the orientation perf-regression smoke instance
#: (~2,000 nodes / ~5,700 edges of the E1 layered-DAG family — the
#: compact phase-driver median sits in the tens of milliseconds, large
#: enough that the CI comparison measures the algorithm rather than
#: interpreter noise, yet the dict reference still finishes in well under
#: a second per timing round).  ``benchmarks/bench_orientation.py`` times
#: this exact instance and commits the median to
#: ``BENCH_orientation.json``; ``scripts/check_bench_regression.py``
#: re-times it in CI.
ORIENTATION_SMOKE_PARAMS = dict(
    num_levels=20, width=100, edge_probability=0.03, seed=7
)


def orientation_smoke(*, compact: bool = False) -> OrientationInstance:
    """The fixed mid-size instance the orientation perf gate re-times."""
    return layered_dag_orientation(**ORIENTATION_SMOKE_PARAMS, compact=compact)


def _churn_smoke_family(**params) -> OrientationInstance:
    # Imported lazily: workloads.churn imports this module's builders.
    from repro.workloads.churn import churn_smoke

    return churn_smoke(**params)


def _scale_layered_family(*, compact: bool = True, **params) -> CompactGraph:
    # scale_layered_orientation streams straight to CSR; it has no dict form.
    if not compact:
        raise ValueError("the scale-layered family is compact-only")
    return scale_layered_orientation(**params)


#: The named orientation families :func:`build_orientation_instance` (and
#: the :meth:`repro.api.Instance.build` facade, and ``--family`` on the
#: serve CLI) can construct.  Every builder accepts ``compact=``.
ORIENTATION_FAMILIES = {
    "sensor-network": sensor_network_orientation,
    "regular": regular_orientation,
    "caterpillar": caterpillar_orientation,
    "long-path": long_path_orientation,
    "layered": layered_dag_orientation,
    "orientation-smoke": orientation_smoke,
    "churn-smoke": _churn_smoke_family,
    "scale-layered": _scale_layered_family,
}


def build_orientation_instance(family: str, **params) -> CompactGraph:
    """Build the named orientation family as a compact CSR instance.

    The registry entry point behind :meth:`repro.api.Instance.build`:
    always emits the :class:`~repro.graphs.compact.CompactGraph` form
    (``compact=True`` is forced), raising ``ValueError`` with the known
    names on an unknown ``family``.
    """
    try:
        builder = ORIENTATION_FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(ORIENTATION_FAMILIES))
        raise ValueError(
            f"unknown orientation family {family!r}; known families: {known}"
        ) from None
    return builder(compact=True, **params)


# ----------------------------------------------------------------------
# Token dropping workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompactTokenGame:
    """A token dropping game already in dense-kernel form.

    What :func:`scale_token_dropping` emits: the
    :class:`~repro.core.token_dropping._kernels._DenseGame` the proposal
    kernel consumes directly, plus the dense-id → original-id mapping the
    tie-break RNGs and halt outputs need.  The game arrays are
    element-for-element what ``_DenseGame.from_instance`` would produce
    on the equivalent :class:`TokenDroppingInstance` — the dict instance
    is simply never built.
    """

    game: object
    node_ids: Tuple[NodeId, ...]

    @property
    def num_nodes(self) -> int:
        return self.game.num_nodes

    @property
    def num_edges(self) -> int:
        return self.game.num_edges

    def height(self) -> int:
        return max(self.game.level) if self.game.num_nodes else 0

    def max_degree(self) -> int:
        game = self.game
        par_ptr, chi_ptr = game.par_ptr, game.chi_ptr
        return max(
            (
                par_ptr[i + 1] - par_ptr[i] + chi_ptr[i + 1] - chi_ptr[i]
                for i in range(game.num_nodes)
            ),
            default=0,
        )

    def theoretical_round_bound(self, constant: int = 8) -> int:
        """The Theorem 4.1 budget, as the dict instance computes it."""
        return proposal_round_budget(self.height(), self.max_degree(), constant)


def random_token_dropping(
    *,
    num_levels: int = 6,
    width: int = 8,
    edge_probability: float = 0.4,
    token_fraction: float = 0.5,
    max_degree: Optional[int] = None,
    seed: int = 0,
) -> TokenDroppingInstance:
    """A random layered game (the experiment E1 instance family)."""
    rng = random.Random(seed)
    graph = random_layered_graph(
        num_levels, width, edge_probability, seed=rng, max_degree=max_degree
    )
    tokens = random_token_placement(graph, token_fraction, rng)
    return TokenDroppingInstance(graph, tokens)


def figure2_game() -> TokenDroppingInstance:
    """The Figure 2 game (re-exported here so examples need only this module)."""
    return figure2_instance()


#: Fixed parameters of the perf-regression smoke game (~4,000 nodes — big
#: enough that the compact median is tens of milliseconds, so the CI
#: comparison against the committed median measures the algorithm rather
#: than scheduler noise, yet small enough to run in well under a second).
#: The benchmark suite times this exact instance in every mode and commits
#: the median to ``BENCH_token_dropping.json``;
#: ``scripts/check_bench_regression.py`` re-times it in CI and fails when
#: the median regresses by more than the allowed factor.
TOKEN_DROPPING_SMOKE_PARAMS = dict(
    num_levels=8, width=500, edge_probability=0.012, token_fraction=0.6, seed=7
)


def token_dropping_smoke() -> TokenDroppingInstance:
    """The fixed small game the perf-regression smoke check times."""
    return random_token_dropping(**TOKEN_DROPPING_SMOKE_PARAMS)


def bounded_degree_token_dropping(
    *,
    num_levels: int,
    degree: int,
    width_factor: int = 3,
    token_fraction: float = 0.6,
    seed: int = 0,
) -> TokenDroppingInstance:
    """A layered game whose maximum degree is capped at ``degree``.

    Used for the Δ-sweeps of experiment E1/E3: the width scales with the
    degree so the cap binds without emptying the graph.
    """
    return random_token_dropping(
        num_levels=num_levels,
        width=max(2, degree * width_factor // 2),
        edge_probability=min(1.0, 2.0 * degree / max(1, degree * width_factor // 2)),
        token_fraction=token_fraction,
        max_degree=degree,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Million-node scale workloads (the BENCH_scale instance family)
# ----------------------------------------------------------------------
#: Named parameter tiers of the scale family.  Node count is
#: ``num_levels * width``; ``edge_probability ≈ 2 / width`` targets mean
#: total degree ≈ 4 at every tier so the tiers differ only in n.  The
#: ``10m`` tier exists for the opt-in full run (REPRO_BENCH_SCALE_XL);
#: expect several GB of peak RSS there.
SCALE_TIER_PARAMS = {
    "100k": dict(num_levels=50, width=2_000, edge_probability=0.001, seed=11),
    "1m": dict(num_levels=100, width=10_000, edge_probability=0.0002, seed=11),
    "10m": dict(num_levels=100, width=100_000, edge_probability=0.00002, seed=11),
}


def scale_layered_orientation(
    *,
    num_levels: int,
    width: int,
    edge_probability: float,
    seed: int = 0,
) -> CompactGraph:
    """A scale-family layered DAG as a compact orientation instance.

    Array to CSR: :func:`layered_dag_edge_arrays` samples the edges
    in NumPy into two flat ``array('q')`` buffers (span
    ``graph.generate``, which also pays a process's first NumPy import)
    and :meth:`CompactGraph.from_arrays` sorts them into CSR (span
    ``graph.csr``).  No
    edge tuple, string, dict or networkx graph is built, and the result
    equals ``CompactGraph.from_edges`` on the same edges field for field.
    Node ids are the generator's dense ints ``level * width + index``;
    isolated nodes are kept (the ids are all of ``range(n)``).
    """
    with obs.span("graph.generate"):
        child, parent = layered_dag_edge_arrays(
            num_levels, width, edge_probability, seed=seed
        )
    with obs.span("graph.csr"):
        return CompactGraph.from_arrays(child, parent, num_levels * width)


def scale_token_dropping(
    *,
    num_levels: int,
    width: int,
    edge_probability: float,
    token_fraction: float = 0.6,
    seed: int = 0,
) -> CompactTokenGame:
    """A scale-family token dropping game built without any dict detour.

    Same instance family as :func:`scale_layered_orientation` (same
    edge arrays, same ids), with levels ``node // width`` and tokens drawn
    from a dedicated ``Random(f"{seed}:tokens")`` stream — edges and
    tokens are independent.  Dense ids follow the ``repr`` order of the
    int node ids (:func:`~repro.graphs.compact.int_repr_order`, the rank
    :meth:`CompactGraph.from_arrays` uses), keeping the reference
    tie-break contract: at small n the game arrays equal
    ``_DenseGame.from_instance`` on the equivalent dict instance
    (cross-validated in the scale scenario tests).
    """
    if not 0.0 <= token_fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {token_fraction}")
    n = num_levels * width
    child, parent = layered_dag_edge_arrays(
        num_levels, width, edge_probability, seed=seed
    )
    order, rank = int_repr_order(n)
    token_rng = random.Random(f"{seed}:tokens")
    # One draw per node in repr (= dense) order, like the reference
    # placement helper.
    has_token = [token_rng.random() < token_fraction for _ in range(n)]
    game, _ = game_from_arrays(n, has_token, order // width, rank[child], rank[parent])
    return CompactTokenGame(game=game, node_ids=tuple(order.tolist()))


# ----------------------------------------------------------------------
# Adversarial / lower-bound workloads
# ----------------------------------------------------------------------
def hard_matching_bipartite(
    *, side: int = 30, degree: int = 4, seed: int = 0, compact: bool = False
) -> AssignmentInstance:
    """A balanced bipartite instance for the Theorem 4.6 / 7.4 reductions."""
    return random_bipartite_customer_server(
        num_customers=side,
        num_servers=side,
        customer_degree=min(degree, side),
        seed=seed,
        compact=compact,
    )


def two_cliques_bottleneck(
    *, clique_size: int = 8
) -> Tuple[OrientationProblem, NodeId, NodeId]:
    """Two cliques joined by a single bridge edge.

    The bridge is the bottleneck discussed in Section 2 ("Distributed load
    balancing"): stable orientation uses it at most once, whereas full load
    balancing might need to push many load units across.  Returns the
    problem and the two bridge endpoints.
    """
    if clique_size < 2:
        raise ValueError(f"clique_size must be at least 2, got {clique_size}")
    left = nx.complete_graph(clique_size)
    graph = nx.disjoint_union(left, nx.complete_graph(clique_size))
    bridge_u, bridge_v = 0, clique_size
    graph.add_edge(bridge_u, bridge_v)
    return OrientationProblem.from_networkx(graph), bridge_u, bridge_v
