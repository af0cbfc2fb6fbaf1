"""Reproduction of *Efficient Load-Balancing through Distributed Token Dropping*.

This package reproduces the algorithms, bounds, and constructions of

    Sebastian Brandt, Barbara Keller, Joel Rybicki, Jukka Suomela, Jara Uitto.
    "Efficient Load-Balancing through Distributed Token Dropping." SPAA 2021.
    (arXiv:2005.07761)

The package is organised as follows:

``repro.local_model``
    A synchronous LOCAL-model simulator: per-node state machines exchanging
    messages in rounds, with exact round and message accounting.  All
    distributed algorithms in this package are expressed as
    :class:`~repro.local_model.node.NodeAlgorithm` subclasses and executed
    by :class:`~repro.local_model.runner.Runner`.

``repro.graphs``
    Graph substrates: layered DAG instances for the token dropping game,
    bipartite customer--server graphs, hypergraphs, per-edge orientation
    state, and generators for the instance families used throughout the
    paper (d-regular graphs, perfect d-ary trees, random bipartite
    workloads, ...).

``repro.core``
    The paper's contributions:

    * ``core.token_dropping`` -- the token dropping game, the O(L·Δ²)
      proposal algorithm (Theorem 4.1), the O(Δ) height-3 algorithm
      (Theorem 4.7), greedy baselines, and the hypergraph generalisation
      (Theorem 7.1).
    * ``core.orientation`` -- stable orientations: the phase-based O(Δ⁴)
      algorithm (Theorem 5.1), the centralized sequential flip algorithm,
      and a Czygrinow-style repair baseline.
    * ``core.assignment`` -- stable assignments on customer--server
      hypergraphs: the O(C·S⁴) algorithm (Theorem 7.3), the k-bounded
      relaxation and its O(C·S²) algorithm (Theorem 7.5), and
      semi-matching costs with exact optimal semi-matching for measuring
      the 2-approximation claim.

``repro.lower_bounds``
    The instance constructions behind the paper's lower bounds
    (Theorems 4.6, 6.3, 7.4) and indistinguishability utilities.

``repro.analysis``
    Growth-exponent fitting, summary statistics, and plain-text table
    reporting over the experiment engine's results, used by
    ``scripts/run_experiments.py`` and the examples.

``repro.workloads``
    Named, reproducible workload scenarios used by the examples and
    benchmarks.

``repro.serve``
    A long-lived asyncio serving layer over one solved orientation:
    point queries from flat arrays, coalesced update batches, and
    snapshot/restore of the full serving state.

Public facade
-------------
The three facade entry points of :mod:`repro.api` are re-exported here
(lazily), together with the incremental engine and its delta types::

    import repro

    instance = repro.Instance.build("layered", num_levels=8, width=20, seed=3)
    solved = repro.solve(instance, seed=3)
    engine = solved.dynamic()
    engine.apply(repro.EdgeInsert((0, 1), (1, 2)))
"""

from repro._version import __version__

#: Facade names resolved lazily (PEP 562) so ``import repro`` stays cheap
#: for subsystems (``repro.obs``, kernels) that never touch the facade.
_FACADE_EXPORTS = {
    "Instance": "repro.api",
    "Solved": "repro.api",
    "solve": "repro.api",
    "DynamicOrientation": "repro.core.orientation.incremental",
    "Delta": "repro.core.orientation.incremental",
    "EdgeInsert": "repro.core.orientation.incremental",
    "EdgeDelete": "repro.core.orientation.incremental",
    "NodeJoin": "repro.core.orientation.incremental",
    "NodeLeave": "repro.core.orientation.incremental",
}

__all__ = ["__version__", *sorted(_FACADE_EXPORTS)]


def __getattr__(name: str):
    module_name = _FACADE_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_FACADE_EXPORTS))
