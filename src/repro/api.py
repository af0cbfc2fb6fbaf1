"""``repro.api`` — the unified public facade.

Three steps cover the whole library surface for most users::

    import repro

    instance = repro.Instance.build("layered", num_levels=8, width=20, seed=3)
    solved = repro.solve(instance, algorithm="repair", seed=3)
    engine = solved.dynamic()          # absorb churn, serve queries

:class:`Instance` wraps a compact CSR graph (built from a named workload
family, an edge list/stream, or an existing
:class:`~repro.graphs.compact.CompactGraph`); :func:`solve` runs one of
the paper's stable-orientation kernels and returns a :class:`Solved`
holding the *flat* ``heads``/``load`` arrays; :meth:`Solved.dynamic`
enters the incremental engine through the trusted constructor — no
re-solve, no dict round-trip. The serving layer (:mod:`repro.serve`) and
the examples are built entirely on these entry points.

The historical per-module entry points
(:func:`~repro.core.orientation.phases.run_stable_orientation`,
:func:`~repro.core.orientation.repair.synchronous_repair_orientation`,
:func:`~repro.core.orientation.bounded.run_bounded_stable_orientation`)
are unchanged — this module delegates to them; each is cross-validated
against its ``*_reference`` twin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Tuple

from repro import obs
from repro.core.orientation.incremental import DynamicOrientation
from repro.graphs.compact import CompactGraph

NodeId = Hashable

__all__ = ["ALGORITHMS", "Instance", "Solved", "solve"]

#: The algorithm names :func:`solve` accepts.
ALGORITHMS = ("repair", "phases", "bounded")


class Instance:
    """An orientation instance in compact CSR form (the facade's input).

    Thin and immutable: ``graph`` is the wrapped
    :class:`~repro.graphs.compact.CompactGraph`.  Constructors cover the
    common sources; :meth:`build` routes through the named
    scenario-family registry of :mod:`repro.workloads.scenarios`.
    """

    __slots__ = ("graph",)

    def __init__(self, graph: CompactGraph) -> None:
        if not isinstance(graph, CompactGraph):
            raise TypeError(
                "Instance wraps a CompactGraph; use Instance.build(...) / "
                "from_edges(...) / from_problem(...) to construct one"
            )
        self.graph = graph

    # -- constructors ---------------------------------------------------
    @classmethod
    def build(cls, family: str, **params) -> "Instance":
        """Build a named workload family (see :meth:`families`)."""
        from repro.workloads.scenarios import build_orientation_instance

        with obs.span("api.build", family=family) as sp:
            graph = build_orientation_instance(family, **params)
            sp.set(nodes=graph.num_nodes, edges=graph.num_edges)
        return cls(graph)

    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[NodeId, NodeId]], nodes: Iterable[NodeId] = ()
    ) -> "Instance":
        return cls(CompactGraph.from_edges(edges, nodes=nodes))

    @classmethod
    def from_problem(cls, problem) -> "Instance":
        """Intern a reference :class:`OrientationProblem` (lossless)."""
        return cls(CompactGraph.from_orientation_problem(problem))

    @staticmethod
    def families() -> Tuple[str, ...]:
        """The registered scenario-family names, sorted."""
        from repro.workloads.scenarios import ORIENTATION_FAMILIES

        return tuple(sorted(ORIENTATION_FAMILIES))

    # -- queries --------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instance(nodes={self.num_nodes}, edges={self.num_edges})"


@dataclass(frozen=True)
class Solved:
    """A solved orientation as flat arrays plus its provenance.

    ``heads[e]`` is the dense head of edge ``e`` of ``instance.graph``;
    ``load[i]`` the indegree of dense node ``i``.  Both are the kernel's
    own lists, shared with ``result``: treat them as read-only.
    ``result`` carries the underlying algorithm's stats/result object
    (``RepairRunStats``, ``StableOrientationResult``, or
    ``BoundedOrientationResult``), whose dict views are built only on
    demand.
    """

    # Compatibility shim for perfbench/story.py; delete with the next benchmark change.
    backend = "compact"

    instance: Instance
    algorithm: str
    seed: int
    heads: List[int]
    load: List[int]
    result: object = None

    # -- queries --------------------------------------------------------
    def loads(self) -> Dict[NodeId, int]:
        ids = self.instance.graph.node_ids
        return {ids[i]: self.load[i] for i in range(len(self.load))}

    def head_of(self, u: NodeId, v: NodeId) -> NodeId:
        graph = self.instance.graph
        return graph.node_ids[self.heads[graph.edge_index(u, v)]]

    def max_load(self) -> int:
        return max(self.load, default=0)

    def is_stable(self) -> bool:
        """The badness-1 stability check, O(m) over the flat arrays."""
        graph = self.instance.graph
        eu, ev = graph.edge_u, graph.edge_v
        load = self.load
        for e, h in enumerate(self.heads):
            t = eu[e] if h == ev[e] else ev[e]
            if load[h] - load[t] > 1:
                return False
        return True

    # -- the trusted handoff -------------------------------------------
    def dynamic(self, *, validate: bool = True) -> DynamicOrientation:
        """Enter the incremental engine without re-solving.

        Wraps the arrays via :meth:`DynamicOrientation.from_solved_arrays`
        (the trusted constructor); requires a strictly stable solve, so a
        ``bounded`` (k-relaxed) result may be rejected.
        """
        return DynamicOrientation.from_solved_arrays(
            self.instance.graph,
            self.heads,
            self.load,
            seed=self.seed,
            validate=validate,
        )


def _heads_from_orientation(graph: CompactGraph, orientation) -> List[int]:
    """Dense heads array of an orientation over ``graph``'s edges.

    This and :func:`_load_from_heads` are the unwrap ``perfbench/layers.py``
    times as the ``api`` layer; :func:`solve` does the same through
    :meth:`~repro.core.orientation.problem.Orientation.to_arrays`.
    """
    return orientation.to_arrays(graph)[0]


def _load_from_heads(num_nodes: int, heads: List[int]) -> List[int]:
    load = [0] * num_nodes
    for h in heads:
        load[h] += 1
    return load


def solve(
    instance,
    *,
    algorithm: str = "repair",
    seed: int = 0,
    tie_break: str = "min",
    k: int = 2,
    check_invariants: bool = True,
) -> Solved:
    """Solve an instance into a :class:`Solved` flat-array orientation.

    Parameters
    ----------
    instance:
        An :class:`Instance` (or a bare
        :class:`~repro.graphs.compact.CompactGraph`, which is wrapped).
    algorithm:
        ``"repair"`` (the synchronous repair baseline — the engine's
        native solver), ``"phases"`` (the token-dropping phase algorithm,
        Theorem 5.1), or ``"bounded"`` (the k-bounded relaxation; note
        its output is only k-relaxed stable).
    tie_break, k, check_invariants:
        Passed through to the underlying algorithm where applicable;
        ``tie_break`` is checked up front for every algorithm.

    The kernel's arrays are returned directly — no dict structure is ever
    built, so ``solve`` costs its kernel.
    """
    if isinstance(instance, CompactGraph):
        instance = Instance(instance)
    if not isinstance(instance, Instance):
        raise TypeError(f"cannot solve {type(instance).__name__}")
    graph = instance.graph
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    from repro.core.tie_break import check_tie_break

    check_tie_break(tie_break)

    with obs.span("api.solve", algorithm=algorithm):
        if algorithm == "repair":
            from repro.core.orientation.repair import (
                synchronous_repair_orientation,
            )

            orientation, result = synchronous_repair_orientation(graph, seed=seed)
        elif algorithm == "phases":
            from repro.core.orientation.phases import run_stable_orientation

            result = run_stable_orientation(
                graph,
                tie_break=tie_break,
                seed=seed,
                check_invariants=check_invariants,
            )
            orientation = result.orientation
        else:
            from repro.core.orientation.bounded import (
                run_bounded_stable_orientation,
            )

            result = run_bounded_stable_orientation(
                graph,
                k=k,
                tie_break=tie_break,
                seed=seed,
                check_invariants=check_invariants,
            )
            orientation = result.orientation
        # This hands back the kernel's own arrays.
        heads, load = orientation.to_arrays(graph)

    return Solved(
        instance=instance,
        algorithm=algorithm,
        seed=seed,
        heads=heads,
        load=load,
        result=result,
    )
