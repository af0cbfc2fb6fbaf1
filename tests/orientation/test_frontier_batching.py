"""Frontier proportionality of the compact orientation phase driver.

The million-node acceptance bar: a phase of
:func:`~repro.core.orientation._kernels.stable_orientation_kernel` may
only materialise state proportional to its *frontier* — the badness-1
game edges, the nodes whose level changed net over the phase (a subset
of those whose load changed), and their incident CSR slots — never O(n)
scratch for non-participating nodes.  The kernel exports exactly those
three quantities as ``orientation.frontier.*`` obs counters; this test
pins both their structural meaning (they are bounded by the phase's own
flip/accept work) and the scaling consequence (once the instance
converges, late phases touch a vanishing fraction of the graph even
though every phase still runs).
"""

from __future__ import annotations

from collections import defaultdict

from repro import obs
from repro.core.orientation._kernels import stable_orientation_kernel
from repro.workloads.scenarios import layered_dag_orientation

PARAMS = dict(num_levels=30, width=100, edge_probability=0.03, seed=5)


def _run_with_counters(graph):
    with obs.capture() as sink:
        heads, load, phases, _, _, per_phase = stable_orientation_kernel(
            graph, seed=0
        )
    series = defaultdict(list)
    for event in sink.events:
        if event.get("type") == "counter" and event["name"].startswith(
            "orientation.frontier."
        ):
            series[event["name"].rsplit(".", 1)[1]].append(event["value"])
    return heads, phases, per_phase, series


def test_frontier_counters_bound_by_phase_work():
    graph = layered_dag_orientation(**PARAMS, compact=True)
    n = graph.num_nodes
    delta = graph.max_degree()
    heads, phases, per_phase, series = _run_with_counters(graph)

    # One counter triple per phase, all edges oriented.
    assert phases >= 3
    assert len(series["game_edges"]) == phases
    assert len(series["touched_nodes"]) == phases
    assert len(series["refreshed_slots"]) == phases
    assert all(h >= 0 for h in heads)

    for stats, touched, refreshed, game_edges in zip(
        per_phase,
        series["touched_nodes"],
        series["refreshed_slots"],
        series["game_edges"],
    ):
        # A node's load only changes when an incident edge flips or is
        # accepted, so the touched set is bounded by the phase's own
        # work, never by n ...
        assert touched <= 2 * stats.edges_flipped + stats.accepted
        # ... and badness re-examination visits only the touched nodes'
        # incident slots.
        assert refreshed <= touched * delta
        # The game is built from the maintained badness-1 candidate set;
        # phase 1 has no oriented edges and must build an empty game.
        assert game_edges <= graph.num_edges
    assert series["game_edges"][0] == 0

    # Scaling consequence: by the final phase the frontier has collapsed
    # — the driver touches a sliver of the graph, not O(n) per phase.
    assert series["touched_nodes"][-1] < n // 20
    assert series["refreshed_slots"][-1] < (2 * graph.num_edges) // 20


def test_counters_silent_when_obs_disabled():
    graph = layered_dag_orientation(**PARAMS, compact=True)
    assert not obs.enabled()
    with obs.capture() as sink:
        pass  # capture only to prove the previous run emitted nothing
    stable_orientation_kernel(graph, seed=0)
    assert sink.events == []
