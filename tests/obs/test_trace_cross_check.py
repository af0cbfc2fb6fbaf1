"""Traced spans must agree with the algorithms' own statistics, exactly.

The observability layer is only trustworthy if what it records *is* the
execution: one ``orientation.phase`` span per phase with the
:class:`PhaseStats` attributes (``orientation.bounded_phase`` with the
:class:`AssignmentPhaseStats` ones for the k-bounded kernel), one
``repair.iterations`` increment per repair iteration, one ``local.round``
span per scheduler round, one ``churn.apply`` span per delta with the
:class:`UpdateStats` attributes.
These tests pin that bit for bit on seeded instances, and finish with
the acceptance-criterion scenario: a JSONL trace captured from the
``orientation_smoke`` and ``churn_smoke`` workloads replayed through
``scripts/report_trace.py`` into a breakdown whose span counts match the
stats objects exactly.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.core.assignment import AssignmentPhaseStats
from repro.core.orientation import (
    DynamicOrientation,
    ScratchDynamicOrientation,
    run_bounded_stable_orientation,
    run_stable_orientation,
    synchronous_repair_orientation,
)
from repro.core.token_dropping import figure2_instance, proposal_factory
from repro.engine import ExperimentSpec, ResultCache, run_experiment
from repro.local_model import Runner
from repro.obs.sinks import JsonlSink, MemorySink
from repro.workloads import (
    churn_smoke,
    churn_smoke_trace,
    orientation_smoke,
    sensor_network_orientation,
)

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "report_trace.py"
spec = importlib.util.spec_from_file_location("report_trace", SCRIPT)
report_trace = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = report_trace
spec.loader.exec_module(report_trace)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def sink():
    return obs.configure(MemorySink())


# ----------------------------------------------------------------------
# Orientation phases
# ----------------------------------------------------------------------
#: ``orientation.phase`` span attribute -> :class:`PhaseStats` field.
PHASE_SPAN_FIELDS = {
    "phase": "phase",
    "proposals": "proposals",
    "accepted": "accepted",
    "tokens": "tokens",
    "game_rounds": "token_dropping_game_rounds",
    "communication_rounds": "token_dropping_communication_rounds",
    "height": "token_dropping_height",
    "edges_flipped": "edges_flipped",
    "oriented_total": "edges_oriented_total",
    "max_badness": "max_badness_after",
}


@pytest.mark.parametrize("algorithm", ["phases", "bounded"])
def test_phase_spans_match_phase_stats(sink, algorithm):
    problem = sensor_network_orientation(num_nodes=80, max_degree=6, seed=3)
    if algorithm == "phases":
        result = run_stable_orientation(problem)
        name, fields = "orientation.phase", PHASE_SPAN_FIELDS
    else:
        result = run_bounded_stable_orientation(problem, k=2)
        # Bounded phases carry their AssignmentPhaseStats fields verbatim.
        name = "orientation.bounded_phase"
        fields = {f.name: f.name for f in dataclasses.fields(AssignmentPhaseStats)}

    spans = sink.spans(name)
    assert result.phases > 1
    assert len(spans) == result.phases == len(result.per_phase)
    for span, stats in zip(spans, result.per_phase):
        assert span["attrs"] == {
            attr: getattr(stats, field) for attr, field in fields.items()
        }


def test_phase_spans_nest_under_engine_task_spans(sink):
    # Structural sanity for the report's self-time computation: phases
    # recorded inside a span tree link to their enclosing span.
    with obs.span("outer"):
        run_stable_orientation(orientation_smoke(compact=True))
    outer = sink.spans("outer")[0]
    for span in sink.spans("orientation.phase"):
        assert span["parent"] == outer["id"]


@pytest.mark.parametrize("algorithm", ["phases", "bounded"])
def test_api_solve_root_span_and_lazy_result_wrap_spans(sink, algorithm):
    import repro

    graph = orientation_smoke(compact=True)
    solved = repro.solve(graph, algorithm=algorithm)
    (root,) = sink.spans("api.solve")
    assert root["parent"] is None
    assert root["attrs"] == {"algorithm": algorithm}
    assert all(s["parent"] is not None for s in sink.spans() if s is not root)
    # The dict views are built only on demand, each once, outside the solve.
    assert not sink.spans("result.wrap")
    solved.result.orientation.loads()
    solved.result.orientation.oriented_edges()
    views = ["orientation"]
    if algorithm == "bounded":
        solved.result.assignment_result
        solved.result.assignment_result
        views.append("assignment")
    wraps = sink.spans("result.wrap")
    assert [s["attrs"]["view"] for s in wraps] == views
    assert all(s["attrs"]["edges"] == graph.num_edges for s in wraps)


def test_api_build_root_span_carries_family_and_size(sink):
    import repro

    instance = repro.Instance.build("orientation-smoke")
    (root,) = sink.spans("api.build")
    assert root["parent"] is None
    assert root["attrs"] == {
        "family": "orientation-smoke",
        "nodes": instance.num_nodes,
        "edges": instance.num_edges,
    }
    assert instance.num_edges > 0
    assert all(s["parent"] == root["id"] for s in sink.spans() if s is not root)


def test_scale_build_child_spans_cover_the_api_build_root(sink):
    import repro

    params = dict(num_levels=50, width=200, edge_probability=0.01, seed=11)
    instance = repro.Instance.build("scale-layered", **params)
    assert instance.num_nodes == 10_000
    (root,) = sink.spans("api.build")
    children = [s for s in sink.spans() if s["parent"] == root["id"]]
    assert [s["name"] for s in children] == ["graph.generate", "graph.csr"]
    # A structural check: an untraced step of the build shows up as an
    # uncovered share of the root, whatever the runner's speed.
    covered = sum(s["dur"] for s in children)
    assert covered >= 0.95 * root["dur"], (covered, root["dur"])


def test_snapshot_save_child_spans_cover_the_save_root(sink, tmp_path):
    from repro.serve.snapshot import save_state
    from repro.workloads.churn import churn_trace
    from repro.workloads.scenarios import scale_layered_orientation

    graph = scale_layered_orientation(
        num_levels=50, width=200, edge_probability=0.01, seed=11
    )
    engine = DynamicOrientation(graph, seed=1)
    engine.apply_batch(churn_trace(graph, num_updates=400, seed=1))
    assert any(type(x) is tuple for x in engine._overlay.node_ids)
    save_state(engine, tmp_path / "state.rprosnp")
    (root,) = sink.spans("serve.snapshot.save")
    children = [s for s in sink.spans() if s["parent"] == root["id"]]
    assert [s["name"] for s in children] == [
        "snapshot.export",
        "snapshot.encode_ids",
        "snapshot.write",
    ]
    covered = sum(s["dur"] for s in children)
    assert covered >= 0.95 * root["dur"], (covered, root["dur"])


# ----------------------------------------------------------------------
# Repair loop
# ----------------------------------------------------------------------
def test_repair_span_and_counters_match_repair_stats(sink):
    problem = orientation_smoke(compact=True)
    _, stats = synchronous_repair_orientation(problem, seed=2)
    assert stats.iterations > 0  # the instance must actually exercise repair

    (span,) = sink.spans("orientation.repair")
    assert span["attrs"]["initial_unhappy"] == stats.initial_unhappy
    assert span["attrs"]["iterations"] == stats.iterations
    assert span["attrs"]["flips"] == stats.total_flips
    assert span["attrs"]["communication_rounds"] == stats.communication_rounds

    assert sink.counter_total("repair.iterations") == stats.iterations
    assert sink.samples("repair.flips_per_iteration") == (
        stats.flips_per_iteration
    )
    assert sum(sink.samples("repair.flips_per_iteration")) == stats.total_flips
    # One unhappy-set size observation per iteration, starting from the
    # full initial set.
    unhappy = sink.samples("repair.unhappy_edges")
    assert len(unhappy) == stats.iterations
    assert unhappy[0] == stats.initial_unhappy


# ----------------------------------------------------------------------
# LOCAL round runner
# ----------------------------------------------------------------------
def test_round_spans_match_execution_metrics_on_dict_backend(sink):
    instance = figure2_instance()
    result = Runner(
        instance.to_network(),
        proposal_factory(),
    ).run_reference()
    assert result.metrics.rounds > 0

    rounds = sink.spans("local.round")
    assert len(rounds) == result.metrics.rounds
    assert [s["attrs"]["round"] for s in rounds] == list(
        range(1, result.metrics.rounds + 1)
    )
    # Per-round deltas cover the messages sent inside steps; the
    # scheduler's start() delivers the wake-up messages before round 1,
    # so the round spans account for everything except that fixed cost.
    assert 0 < sum(s["attrs"]["messages"] for s in rounds) <= (
        result.metrics.messages_sent
    )

    (run_span,) = sink.spans("local.run")
    assert run_span["attrs"]["backend"] == "dict"
    assert run_span["attrs"]["rounds"] == result.metrics.rounds
    assert run_span["attrs"]["messages"] == result.metrics.messages_sent
    assert run_span["attrs"]["nodes"] == result.metrics.total_nodes
    # Round spans nest under the run span.
    assert all(s["parent"] == run_span["id"] for s in rounds)


def test_compact_backend_records_run_span_with_same_totals(sink):
    instance = figure2_instance()
    reference = Runner(instance.to_network(), proposal_factory()).run_reference()
    sink.clear()
    compact = Runner(instance.to_network(), proposal_factory()).run()

    (run_span,) = sink.spans("local.run")
    assert run_span["attrs"]["backend"] == "compact"
    assert run_span["attrs"]["rounds"] == compact.metrics.rounds
    assert compact.metrics.rounds == reference.metrics.rounds
    assert run_span["attrs"]["messages"] == reference.metrics.messages_sent
    # The kernel is a whole-execution fast path: no per-round spans.
    assert sink.spans("local.round") == []


# ----------------------------------------------------------------------
# Incremental churn engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["compact", "dict"])
def test_churn_apply_spans_match_update_stats(sink, backend):
    problem = churn_smoke(compact=(backend == "compact"))
    trace = churn_smoke_trace(problem)
    engine_cls = {"compact": DynamicOrientation, "dict": ScratchDynamicOrientation}
    engine = engine_cls[backend](problem, seed=2)
    sink.clear()  # drop the initial-solve spans; measure apply() only

    all_stats = [engine.apply(delta) for delta in trace]

    spans = sink.spans("churn.apply")
    assert len(spans) == len(trace)
    for span, delta, stats in zip(spans, trace, all_stats):
        attrs = span["attrs"]
        assert attrs["kind"] == type(delta).__name__
        assert attrs["frontier_nodes"] == stats.frontier_nodes
        assert attrs["edges_inserted"] == stats.edges_inserted
        assert attrs["edges_removed"] == stats.edges_removed
        assert attrs["initial_unhappy"] == stats.repair.initial_unhappy
        assert attrs["repair_iterations"] == stats.repair.iterations
        assert attrs["repair_flips"] == stats.repair.total_flips
    if backend == "compact":
        # Only the compact engine runs the instrumented shared repair
        # loop (the dict path is the uninstrumented scratch reference);
        # its counter agrees with the summed stats.
        assert sink.counter_total("repair.iterations") == sum(
            s.repair.iterations for s in all_stats
        )


# ----------------------------------------------------------------------
# Experiment engine propagation
# ----------------------------------------------------------------------
def test_engine_task_spans_and_cache_round_trip(sink, tmp_path):
    spec = ExperimentSpec(
        name="obs-crosscheck",
        measure="repro.engine.library:proposal_rounds_vs_delta",
        grid=[{"delta": 2}, {"delta": 3}],
        seeds=(0,),
    )
    cache = ResultCache(str(tmp_path))
    results = run_experiment(spec, cache=cache, jobs=1)
    assert results.executed_count == 2

    # Each task's captured events were forwarded into the parent sink,
    # wrapped in one engine.task span per task.
    task_spans = sink.spans("engine.task")
    assert len(task_spans) == 2
    assert {s["attrs"]["params"]["delta"] for s in task_spans} == {2, 3}
    # The measure runs LOCAL executions, so their spans rode along and
    # are rooted at the task span.
    task_ids = {s["id"] for s in task_spans}
    run_spans = sink.spans("local.run")
    assert run_spans and all(s["parent"] in task_ids for s in run_spans)

    # The cache records carry the trace; a resumed run restores it
    # without re-emitting (no double counting in the parent sink).
    for record in cache.load().values():
        assert any(
            e["type"] == "span" and e["name"] == "engine.task"
            for e in record["trace"]
        )
    sink.clear()
    resumed = run_experiment(spec, cache=cache, jobs=1)
    assert resumed.cached_count == 2
    assert sink.spans("engine.task") == []
    for result in resumed:
        assert any(e.get("name") == "engine.task" for e in result.trace_events)


def test_engine_task_events_propagate_across_the_process_pool(
    sink, tmp_path, monkeypatch
):
    # Workers need observability enabled to capture anything: forked
    # workers inherit the parent's configured sink directly, spawned ones
    # re-run configure_from_env at import — the env var covers the latter
    # (pointing at a scratch file the capture machinery never writes to,
    # because execute_task swaps the sink out for the task's duration).
    monkeypatch.setenv(obs.TRACE_ENV_VAR, str(tmp_path / "worker.jsonl"))
    spec = ExperimentSpec(
        name="obs-pool",
        measure="repro.engine.library:proposal_rounds_vs_delta",
        grid=[{"delta": 2}, {"delta": 3}],
        seeds=(0, 1),
    )
    cache = ResultCache(str(tmp_path))
    results = run_experiment(spec, cache=cache, jobs=2)
    assert results.executed_count == 4
    # Every worker-side task span crossed the pool on its result...
    for result in results:
        assert any(
            e["type"] == "span" and e["name"] == "engine.task"
            for e in result.trace_events
        )
    # ...was re-emitted into the parent's sink, and reached the cache.
    assert len(sink.spans("engine.task")) == 4
    assert all("trace" in record for record in cache.load().values())


def test_disabled_obs_leaves_results_traceless(tmp_path):
    spec = ExperimentSpec(
        name="obs-off",
        measure="repro.engine.library:proposal_rounds_vs_delta",
        grid=[{"delta": 2}],
        seeds=(0,),
    )
    cache = ResultCache(str(tmp_path))
    results = run_experiment(spec, cache=cache, jobs=1)
    assert results.results[0].trace_events == []
    assert all("trace" not in r for r in cache.load().values())


# ----------------------------------------------------------------------
# The acceptance criterion: JSONL -> report_trace with exact counts
# ----------------------------------------------------------------------
def test_jsonl_trace_replays_through_report_trace_with_exact_counts(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    obs.configure(JsonlSink(str(trace_path)))

    orientation_result = run_stable_orientation(orientation_smoke(compact=True))
    churn_problem = churn_smoke(compact=True)
    deltas = churn_smoke_trace(churn_problem)
    engine = DynamicOrientation(churn_problem, seed=2)
    update_stats = [engine.apply(delta) for delta in deltas]
    obs.disable()

    events = report_trace.load_events(str(trace_path))
    report = report_trace.build_report(events)
    by_name = {row["name"]: row for row in report["spans"]}

    # Span counts match the stats objects exactly.
    assert by_name["orientation.phase"]["count"] == orientation_result.phases
    assert by_name["churn.apply"]["count"] == len(deltas)
    # The initial DynamicOrientation solve runs the repair kernel once.
    assert by_name["orientation.repair"]["count"] == 1
    # The counter total is exactly the initial solve's iterations (read
    # off its span attributes) plus every update's repair iterations.
    (solve_span,) = [
        e
        for e in events
        if e["type"] == "span" and e["name"] == "orientation.repair"
    ]
    assert report["counters"]["repair.iterations"] == (
        solve_span["attrs"]["iterations"]
        + sum(s.repair.iterations for s in update_stats)
    )
    hist = {row["name"]: row for row in report["histograms"]}
    assert hist["repair.flips_per_iteration"]["count"] == (
        report["counters"]["repair.iterations"]
    )
    # Percentile and cumulative columns are well-formed.
    phase_row = by_name["orientation.phase"]
    assert 0 <= phase_row["p50_seconds"] <= phase_row["p95_seconds"]
    assert phase_row["self_seconds"] <= phase_row["cum_seconds"] + 1e-9
    assert report["num_events"] == len(events)


def test_report_trace_cli_renders_and_emits_json(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    obs.configure(JsonlSink(str(trace_path)))
    run_stable_orientation(orientation_smoke(compact=True))
    obs.disable()

    assert report_trace.main([str(trace_path)]) == 0
    rendered = capsys.readouterr().out
    assert "orientation.phase" in rendered

    assert report_trace.main([str(trace_path), "--json"]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    names = [row["name"] for row in payload["spans"]]
    assert "orientation.phase" in names


def test_report_trace_has_an_unattributed_row_per_parent_span(capsys):
    def span(pid, sid, parent, name, dur):
        return {
            "type": "span",
            "pid": pid,
            "id": sid,
            "parent": parent,
            "name": name,
            "dur": dur,
        }

    events = [
        span(1, 2, 1, "graph.generate", 0.25),
        span(1, 3, 1, "graph.csr", 0.5),
        span(1, 1, None, "api.build", 1.0),
        span(2, 1, None, "api.build", 1.0),  # another process, no children
        span(1, 4, None, "graph.csr", 0.5),  # a leaf with no parent
    ]
    report = report_trace.build_report(events)
    (row,) = report["unattributed"]
    assert row["name"] == "api.build"
    assert row["cum_seconds"] == pytest.approx(2.0)
    assert row["self_seconds"] == pytest.approx(1.25)
    assert row["share"] == pytest.approx(0.625)

    report_trace.render(report)
    rendered = capsys.readouterr().out
    assert "unattributed in" in rendered
    assert "62.5%" in rendered


def test_percentile_nearest_rank():
    assert report_trace.percentile([1.0], 50) == 1.0
    assert report_trace.percentile([1, 2, 3, 4], 50) == 2
    assert report_trace.percentile([1, 2, 3, 4], 95) == 4
    assert report_trace.percentile([5, 1, 3], 100) == 5
