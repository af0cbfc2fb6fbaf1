"""Frontier proportionality of the k-bounded orientation kernel.

The bounded kernel shares the frontier contract of its unbounded
sibling (see ``test_frontier_batching``): each phase's hypergraph game
is built from the maintained badness-1 edges, re-levelling reads only
the nodes whose load changed, and badness re-examination visits only
the incident slots of the touched nodes, those whose effective level
changed net over the phase — never a fresh O(m) edge scan.  The kernel exports the same
``orientation.frontier.*`` counters, extended by the per-phase game
engine's ``game_vertices``/``scanned_slots`` pair, and this suite pins
them against the phase's own recorded work.
"""

from __future__ import annotations

from collections import defaultdict

from repro import obs
from repro.core.orientation._kernels import bounded_orientation_kernel
from repro.workloads.scenarios import layered_dag_orientation

PARAMS = dict(num_levels=20, width=50, edge_probability=0.05, seed=5)


def _instance(**overrides):
    return layered_dag_orientation(**{**PARAMS, **overrides}, compact=True)


def _run_with_counters(graph, k=2):
    with obs.capture() as sink:
        choice, load, phases, _, per_phase = bounded_orientation_kernel(
            graph, k=k, seed=0
        )
    series = defaultdict(list)
    for event in sink.events:
        if event.get("type") == "counter" and event["name"].startswith(
            "orientation.frontier."
        ):
            series[event["name"].rsplit(".", 1)[1]].append(event["value"])
    return choice, phases, per_phase, series


def test_bounded_frontier_counters_bound_by_phase_work():
    graph = _instance()
    delta = graph.max_degree()
    choice, phases, per_phase, series = _run_with_counters(graph)

    # One counter quintuple per phase, every customer assigned.
    assert phases >= 3
    for key in (
        "game_edges",
        "touched_nodes",
        "refreshed_slots",
        "game_vertices",
        "scanned_slots",
    ):
        assert len(series[key]) == phases, key
    assert all(h >= 0 for h in choice)

    for stats, game_edges, vertices, touched, refreshed in zip(
        per_phase,
        series["game_edges"],
        series["game_vertices"],
        series["touched_nodes"],
        series["refreshed_slots"],
    ):
        # The game counters agree with the recorded phase stats, and the
        # engine only ever walks the live hyperedges' endpoints.
        assert game_edges == stats.game_hyperedges
        assert vertices <= 2 * game_edges
        # A node's effective level only changes when a pass or an accept
        # moved load across it, so the touched set is bounded by the
        # phase's own work, never by n ...
        assert touched <= 2 * stats.reassignments + stats.accepted
        # ... and badness re-examination visits only their slots.
        assert refreshed <= touched * delta

    # Phase 1 starts with nothing assigned: no badness-1 candidates, so
    # the first game is empty and scans nothing.
    assert series["game_edges"][0] == 0
    assert series["game_vertices"][0] == 0
    assert series["scanned_slots"][0] == 0

    # Collapse: by the final phase only a sliver of the graph moves.
    n = graph.num_nodes
    assert series["touched_nodes"][-1] < n // 10
    assert series["refreshed_slots"][-1] < (2 * graph.num_edges) // 10


def test_bounded_counters_silent_when_obs_disabled():
    graph = _instance(num_levels=6, width=15)
    assert not obs.enabled()
    # No sink configured: the kernel must not pay the counter bookkeeping
    # (the obs.enabled() gate) nor emit anything once a sink appears for
    # an unrelated scope.
    choice, load, phases, _, _ = bounded_orientation_kernel(graph, seed=0)
    with obs.capture() as sink:
        pass
    assert sink.events == []
    assert phases >= 1 and all(h >= 0 for h in choice)
