"""Boundaries of the NumPy phase driver behind both orientation kernels.

:func:`~repro.core.orientation._kernels._run_phases` keeps its state in
NumPy arrays, but :func:`stable_orientation_kernel` and
:func:`bounded_orientation_kernel` hand back plain Python: lists of
``int`` heads and loads, and per-phase stats rows of ``int`` fields that
serialise to JSON.  ``Solved.heads`` feeds the server and the snapshots,
so a NumPy scalar leaking out would surface far from here.

Every case below is also checked against the ``*_reference`` dict
oracle: edgeless graphs, isolated nodes, CSR buffers that are
read-only mmap-backed memoryviews of a snapshot, the bounded kernel at
``k = 2`` and at a cap no load reaches, and runs with
``check_invariants=False``.  The bounded kernel's ``k = 1`` has no
reference (the public API requires ``k >= 2``), so it gets structural
checks only.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.orientation import (
    run_bounded_stable_orientation,
    run_bounded_stable_orientation_reference,
    run_stable_orientation,
    run_stable_orientation_reference,
)
from repro.core.orientation._kernels import (
    bounded_orientation_kernel,
    stable_orientation_kernel,
)
from repro.graphs.compact import (
    CSR_FIELDS,
    ArraySnapshot,
    CompactGraph,
    write_array_snapshot,
)
from repro.graphs.generators import bounded_degree_gnp

TIE_BREAKS = ("min", "max", "random")


def _gnp(n=30, p=0.2, seed=3, isolated=()):
    nx_graph = bounded_degree_gnp(n, p, 6, seed=seed)
    return CompactGraph.from_edges(
        nx_graph.edges(), nodes=[*nx_graph.nodes(), *isolated]
    )


def _assert_plain(heads, load, per_phase):
    assert type(heads) is list and type(load) is list
    assert all(type(x) is int for x in heads + load)
    for row in per_phase:
        fields = dataclasses.asdict(row)
        assert all(type(v) is int for v in fields.values()), fields
        json.dumps(fields)


def _stable(graph, *, tie_break="min", seed=0, check_invariants=True):
    out = stable_orientation_kernel(
        graph, tie_break=tie_break, seed=seed, check_invariants=check_invariants
    )
    heads, load, phases, game_rounds, rounds, per_phase = out
    _assert_plain(heads, load, per_phase)
    assert all(type(x) is int for x in (phases, game_rounds, rounds))
    reference = run_stable_orientation_reference(
        graph,
        tie_break=tie_break,
        seed=seed,
        check_invariants=check_invariants,
    )
    assert (heads, load) == reference.orientation.to_arrays(graph)
    assert (phases, game_rounds, rounds, per_phase) == (
        reference.phases,
        reference.game_rounds,
        reference.communication_rounds,
        reference.per_phase,
    )
    return out


def _bounded(graph, *, k=2, tie_break="min", seed=0, check_invariants=True):
    out = bounded_orientation_kernel(
        graph, k=k, tie_break=tie_break, seed=seed, check_invariants=check_invariants
    )
    choice, load, phases, game_rounds, per_phase = out
    _assert_plain(choice, load, per_phase)
    assert all(type(x) is int for x in (phases, game_rounds))
    reference = run_bounded_stable_orientation_reference(
        graph,
        k=k,
        tie_break=tie_break,
        seed=seed,
        check_invariants=check_invariants,
    )
    assert (choice, load) == reference.orientation.to_arrays(graph)
    assert (phases, game_rounds, per_phase) == (
        reference.phases,
        reference.game_rounds,
        reference.per_phase,
    )
    return out


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_both_kernels_return_plain_python(tie_break):
    graph = _gnp()
    assert len(_stable(graph, tie_break=tie_break, seed=4)[-1]) >= 3
    assert len(_bounded(graph, tie_break=tie_break, seed=4)[-1]) >= 2


@pytest.mark.parametrize("nodes", [(), ("a", "b", "c")])
def test_edgeless_graph(nodes):
    graph = CompactGraph.from_edges([], nodes=nodes)
    assert _stable(graph) == ([], [0] * len(nodes), 0, 0, 0, [])
    assert _bounded(graph) == ([], [0] * len(nodes), 0, 0, [])


def test_isolated_nodes_keep_zero_load():
    graph = _gnp(isolated=("iso-1", "iso-2", 1000))
    isolated = [graph.index_of[x] for x in ("iso-1", "iso-2", 1000)]
    for out in (_stable(graph, seed=2), _bounded(graph, seed=2)):
        assert [out[1][i] for i in isolated] == [0, 0, 0]


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_snapshot_backed_csr_runs_like_the_array_graph(tmp_path, tie_break):
    graph = _gnp(n=40, seed=9, isolated=("x",))
    path = tmp_path / "graph.snap"
    write_array_snapshot(path, graph.snapshot_sections())
    with ArraySnapshot(path) as snapshot:
        mirror = CompactGraph.from_buffers(
            graph.node_ids, {f: snapshot.section(f) for f in CSR_FIELDS}
        )
        assert isinstance(mirror.indptr, memoryview)
        assert mirror.indptr.readonly
        assert _stable(mirror, tie_break=tie_break, seed=1) == _stable(
            graph, tie_break=tie_break, seed=1
        )
        assert _bounded(mirror, tie_break=tie_break, seed=1) == _bounded(
            graph, tie_break=tie_break, seed=1
        )
    # Closing the snapshot releases its buffers, which raises if a NumPy
    # array of a kernel run still holds one of them.


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_bounded_at_the_smallest_and_an_unreachable_cap(tie_break):
    graph = _gnp(n=36, p=0.25, seed=5)
    delta = graph.max_degree()
    _bounded(graph, k=2, tie_break=tie_break, seed=6)
    _bounded(graph, k=delta + 1, tie_break=tie_break, seed=6)
    _bounded(graph, k=delta + 5, tie_break=tie_break, seed=6)


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_bounded_kernel_at_k_1(tie_break):
    # The public API and the dict reference both require k >= 2, so the
    # kernel's k = 1 (every level is 0 or 1) has no reference to match:
    # check the output shape, completeness and the unchecked rerun.
    graph = _gnp(n=36, p=0.25, seed=5)
    out = bounded_orientation_kernel(graph, k=1, tie_break=tie_break, seed=6)
    choice, load, phases, _, per_phase = out
    _assert_plain(choice, load, per_phase)
    assert phases == len(per_phase) >= 1
    assert per_phase[-1].customers_assigned_total == graph.num_edges
    for e, h in enumerate(choice):
        assert h in (graph.edge_u[e], graph.edge_v[e])
    assert sum(load) == graph.num_edges
    assert all(row.max_badness_after <= 1 for row in per_phase)
    assert out == bounded_orientation_kernel(
        graph, k=1, tie_break=tie_break, seed=6, check_invariants=False
    )


def test_unchecked_runs_match_the_checked_ones():
    graph = _gnp(n=40, p=0.15, seed=8, isolated=("z",))
    assert _stable(graph, seed=3, check_invariants=False) == _stable(graph, seed=3)
    assert _bounded(graph, seed=3, check_invariants=False) == _bounded(graph, seed=3)
