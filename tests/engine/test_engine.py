"""Tests for the parallel experiment engine (spec, executor, cache, results)."""

from __future__ import annotations

import json

import pytest

from repro.engine import (
    ExperimentSpec,
    ProgressReporter,
    ResultCache,
    TaskError,
    TaskSpec,
    execute_task,
    library,
    measure_reference,
    open_cache,
    parameter_grid,
    resolve_measure,
    run_experiment,
    run_tasks,
)


def toy_measure(*, seed: int, delta: int, factor: int = 10) -> dict:
    """A deterministic, importable measure used throughout these tests."""
    return {"rounds": delta * factor + seed, "delta": delta}


def crashing_measure(*, seed: int, x: int) -> dict:
    raise RuntimeError("boom")


def crash_on_99(*, seed: int, x: int) -> dict:
    if x == 99:
        raise RuntimeError("boom at 99")
    return {"v": x + seed}


TOY_SPEC = ExperimentSpec(
    name="toy",
    measure=toy_measure,
    grid=parameter_grid(delta=[1, 2, 3]),
    seeds=(0, 1),
)


class TestTaskHashing:
    def test_same_spec_same_hash(self):
        first = TaskSpec("e", "m:f", {"delta": 2, "w": 5}, seed=3)
        second = TaskSpec("e", "m:f", {"w": 5, "delta": 2}, seed=3)
        assert first.task_hash() == second.task_hash()

    def test_hash_is_stable_across_expansions(self):
        hashes_a = [t.task_hash() for t in TOY_SPEC.tasks()]
        hashes_b = [t.task_hash() for t in TOY_SPEC.tasks()]
        assert hashes_a == hashes_b
        assert len(set(hashes_a)) == len(hashes_a)

    def test_changed_param_changes_hash(self):
        base = TaskSpec("e", "m:f", {"delta": 2}, seed=0)
        other_param = TaskSpec("e", "m:f", {"delta": 3}, seed=0)
        other_seed = TaskSpec("e", "m:f", {"delta": 2}, seed=1)
        other_measure = TaskSpec("e", "m:g", {"delta": 2}, seed=0)
        hashes = {
            base.task_hash(),
            other_param.task_hash(),
            other_seed.task_hash(),
            other_measure.task_hash(),
        }
        assert len(hashes) == 4

    def test_hash_ignores_experiment_name_and_index(self):
        renamed = TaskSpec("other", "m:f", {"delta": 2}, seed=0, index=7)
        base = TaskSpec("e", "m:f", {"delta": 2}, seed=0, index=0)
        assert renamed.task_hash() == base.task_hash()

    def test_unserialisable_params_rejected(self):
        task = TaskSpec("e", "m:f", {"obj": object()}, seed=0)
        with pytest.raises(TypeError):
            task.task_hash()

    def test_measure_source_is_part_of_the_hash(self):
        """Editing a measure's code must invalidate its cached results."""
        from repro.engine import measure_fingerprint

        fingerprint = measure_fingerprint(toy_measure)
        assert fingerprint is not None
        assert all(t.measure_fingerprint == fingerprint for t in TOY_SPEC.tasks())
        before = TaskSpec("e", "m:f", {"delta": 2}, seed=0, measure_fingerprint="aaaa")
        after = TaskSpec("e", "m:f", {"delta": 2}, seed=0, measure_fingerprint="bbbb")
        assert before.task_hash() != after.task_hash()


class TestMeasureReferences:
    def test_roundtrip(self):
        reference = measure_reference(toy_measure)
        assert reference.endswith(":toy_measure")
        assert resolve_measure(reference) is toy_measure

    def test_library_measures_resolve(self):
        reference = measure_reference(library.three_level_vs_generic)
        assert resolve_measure(reference) is library.three_level_vs_generic

    def test_lambda_is_not_resolvable(self):
        reference = measure_reference(lambda *, seed: {"v": seed})
        with pytest.raises(ValueError):
            resolve_measure(reference)

    def test_bad_references_rejected(self):
        with pytest.raises(ValueError):
            measure_reference("no-colon")
        with pytest.raises(ValueError):
            resolve_measure("nonexistent_module_xyz:f")
        with pytest.raises(ValueError):
            resolve_measure(f"{__name__}:does_not_exist")


class TestExecutor:
    def test_serial_execution_in_task_order(self):
        results = run_tasks(TOY_SPEC.tasks(), jobs=1)
        assert [r.values["rounds"] for r in results] == [10, 11, 20, 21, 30, 31]
        assert all(not r.cached for r in results)

    def test_parallel_matches_serial_exactly(self):
        """Acceptance: --jobs N>1 produces results identical to the serial run."""
        serial = run_tasks(TOY_SPEC.tasks(), jobs=1)
        parallel = run_tasks(TOY_SPEC.tasks(), jobs=2)
        assert [r.values for r in parallel] == [r.values for r in serial]
        assert [r.task_hash for r in parallel] == [r.task_hash for r in serial]
        assert [r.params for r in parallel] == [r.params for r in serial]

    def test_parallel_real_measure_matches_serial(self):
        spec = ExperimentSpec(
            name="E3-small",
            measure=library.three_level_vs_generic,
            grid=parameter_grid(delta=[2, 3]),
            seeds=(0,),
        )
        serial = run_experiment(spec, jobs=1)
        parallel = run_experiment(spec, jobs=2)
        assert [r.values for r in parallel] == [r.values for r in serial]

    def test_lambda_measure_runs_serially_but_not_parallel(self):
        spec = ExperimentSpec(
            name="lambda",
            measure=lambda *, seed, x: {"v": x + seed},
            grid=parameter_grid(x=[1, 2]),
            seeds=(0,),
        )
        assert [r.values["v"] for r in run_experiment(spec, jobs=1)] == [1, 2]
        with pytest.raises(ValueError):
            run_experiment(spec, jobs=2)

    def test_failures_are_not_swallowed(self):
        spec = ExperimentSpec(
            name="crash",
            measure=crashing_measure,
            grid=parameter_grid(x=[1]),
            seeds=(0,),
        )
        with pytest.raises(TaskError):
            run_experiment(spec, jobs=1)
        with pytest.raises(TaskError):
            run_experiment(spec, jobs=2)

    def test_failure_names_the_actual_task(self):
        spec = ExperimentSpec(
            name="crash",
            measure=crash_on_99,
            grid=parameter_grid(x=[1, 2, 99, 4]),
            seeds=(0,),
        )
        for jobs in (1, 2):
            with pytest.raises(TaskError, match=r"x=99") as excinfo:
                run_experiment(spec, jobs=jobs)
            assert "boom at 99" in str(excinfo.value)

    def test_parallel_failure_keeps_completed_siblings_cached(self, tmp_path):
        """Work finished before a crash survives into the cache for resume."""
        cache = ResultCache(tmp_path)
        spec = ExperimentSpec(
            name="crash",
            measure=crash_on_99,
            grid=parameter_grid(x=[1, 2, 3, 4, 5, 6, 7, 99]),
            seeds=(0,),
        )
        with pytest.raises(TaskError):
            run_experiment(spec, jobs=2, cache=cache)
        surviving = cache.load()
        assert len(surviving) >= 1
        failing_hash = spec.tasks()[-1].task_hash()
        assert failing_hash not in surviving
        # After "fixing the input", only the uncached tasks re-execute.
        fixed = ExperimentSpec(
            name="crash",
            measure=crash_on_99,
            grid=parameter_grid(x=[1, 2, 3, 4, 5, 6, 7]),
            seeds=(0,),
        )
        resumed = run_experiment(fixed, jobs=1, cache=cache)
        assert resumed.cached_count == len(surviving)
        assert resumed.executed_count == 7 - len(surviving)

    def test_execute_task_records_hash_and_timing(self):
        task = TOY_SPEC.tasks()[0]
        result = execute_task(task, toy_measure)
        assert result.task_hash == task.task_hash()
        assert result.elapsed_seconds >= 0.0
        assert result.values == {"rounds": 10, "delta": 1}


class TestCacheAndResume:
    def test_first_run_misses_second_run_all_hits(self, tmp_path):
        """Acceptance: a second --resume invocation executes zero new tasks."""
        cache = ResultCache(tmp_path)
        first = run_experiment(TOY_SPEC, jobs=1, cache=cache)
        assert first.executed_count == len(TOY_SPEC)
        assert first.cached_count == 0

        second = run_experiment(TOY_SPEC, jobs=2, cache=cache)
        assert second.executed_count == 0
        assert second.cached_count == len(TOY_SPEC)
        assert [r.values for r in second] == [r.values for r in first]

    def test_parallel_run_fills_the_cache_a_resume_reports_as_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        serial = run_experiment(TOY_SPEC, jobs=1)
        parallel = run_experiment(TOY_SPEC, jobs=2, cache=cache)
        assert [r.values for r in parallel] == [r.values for r in serial]

        seen = []
        resumed = run_experiment(TOY_SPEC, jobs=1, cache=cache, progress=seen.append)
        assert len(resumed) == len(TOY_SPEC)
        assert len(seen) == len(TOY_SPEC)
        assert all(result.cached for result in seen)
        assert [r.values for r in resumed] == [r.values for r in serial]

    def test_changed_param_is_a_cache_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment(TOY_SPEC, jobs=1, cache=cache)
        widened = ExperimentSpec(
            name="toy",
            measure=toy_measure,
            grid=parameter_grid(delta=[1, 2, 3, 4]),
            seeds=(0, 1),
        )
        rerun = run_experiment(widened, jobs=1, cache=cache)
        assert rerun.executed_count == 2  # only delta=4 x seeds {0, 1}
        assert rerun.cached_count == len(TOY_SPEC)

    def test_no_resume_recomputes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment(TOY_SPEC, jobs=1, cache=cache)
        rerun = run_experiment(TOY_SPEC, jobs=1, cache=cache, resume=False)
        assert rerun.executed_count == len(TOY_SPEC)

    def test_partial_cache_resumes_interrupted_sweep(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = TOY_SPEC.tasks()
        # Simulate an interrupt: only the first three tasks completed.
        for task in tasks[:3]:
            cache.append(execute_task(task, toy_measure).to_record())
        resumed = run_experiment(TOY_SPEC, jobs=1, cache=cache)
        assert resumed.cached_count == 3
        assert resumed.executed_count == len(tasks) - 3
        assert [r.values["rounds"] for r in resumed] == [10, 11, 20, 21, 30, 31]

    def test_corrupt_trailing_line_is_skipped(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment(TOY_SPEC, jobs=1, cache=cache)
        with cache.path.open("a", encoding="utf-8") as handle:
            handle.write('{"task_hash": "truncat')  # crash mid-write
        assert len(cache.load()) == len(TOY_SPEC)
        rerun = run_experiment(TOY_SPEC, jobs=1, cache=cache)
        assert rerun.executed_count == 0

    def test_cache_file_is_json_lines(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment(TOY_SPEC, jobs=1, cache=cache)
        lines = cache.path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(TOY_SPEC)
        record = json.loads(lines[0])
        assert {"task_hash", "params", "seed", "values", "elapsed_seconds"} <= set(
            record
        )

    def test_open_cache_none_passthrough(self, tmp_path):
        assert open_cache(None) is None
        assert open_cache(tmp_path).directory == tmp_path


class TestResultsAndProgress:
    def test_series_means_over_seeds_by_default(self):
        results = run_experiment(TOY_SPEC, jobs=1)
        xs, ys = results.series("delta", "rounds")
        assert xs == [1.0, 2.0, 3.0]
        assert ys == [10.5, 20.5, 30.5]
        assert all(type(v) is float for v in xs + ys)

    def test_series_sorts_x_and_applies_a_custom_reduce(self):
        spec = ExperimentSpec(
            "toy", toy_measure, parameter_grid(delta=[3, 1, 2]), seeds=(0, 1)
        )
        results = run_experiment(spec, jobs=1)
        xs, ys = results.series("delta", "rounds", reduce=max)
        assert xs == [1.0, 2.0, 3.0]
        assert ys == [11.0, 21.0, 31.0]
        assert results.series("delta", "rounds", reduce=len)[1] == [2.0, 2.0, 2.0]

    def test_filter_and_values_of(self):
        results = run_experiment(TOY_SPEC, jobs=1)
        point = results.filter(delta=2)
        assert len(point) == 2
        assert point.values_of("rounds") == [20, 21]

    def test_progress_reporter_counts_cache_hits(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        run_experiment(TOY_SPEC, jobs=1, cache=cache)

        reporter = ProgressReporter(len(TOY_SPEC), label="toy")
        run_experiment(TOY_SPEC, jobs=1, cache=cache, progress=reporter)
        reporter.close()
        assert reporter.executed == 0
        assert reporter.cached == len(TOY_SPEC)
        err = capsys.readouterr().err
        assert "(0 executed, 6 from cache)" in err

    def test_progress_called_once_per_task(self):
        seen = []
        run_experiment(TOY_SPEC, jobs=1, progress=seen.append)
        assert len(seen) == len(TOY_SPEC)

    @staticmethod
    def _result(index: int = 0):
        from repro.engine.results import TaskResult

        return TaskResult(
            experiment="toy",
            params={"delta": 1},
            seed=0,
            values={},
            elapsed_seconds=0.0,
            task_hash="h",
            index=index,
        )

    def test_first_task_under_timer_resolution_has_no_eta(self, monkeypatch, capsys):
        # Regression: the very first completion can land with elapsed == 0
        # (coarse perf_counter) or denormal-tiny elapsed (rate overflows to
        # inf); the pace suffix must be dropped, never a ZeroDivisionError
        # or an "inf/s" line.
        import io

        import repro.engine.progress as progress_mod

        for frozen_delta in (0.0, 5e-324):
            clock = iter([100.0, 100.0 + frozen_delta, 100.0 + frozen_delta])
            monkeypatch.setattr(
                progress_mod.time, "perf_counter", lambda c=clock: next(c)
            )
            stream = io.StringIO()
            reporter = ProgressReporter(4, label="toy", stream=stream)
            reporter(self._result())  # must not raise
            line = stream.getvalue()
            assert "eta" not in line and "inf" not in line, line

    def test_summary_rate_is_finite_under_timer_resolution(self, monkeypatch):
        import repro.engine.progress as progress_mod

        clock = iter([100.0, 100.0, 100.0 + 5e-324])
        monkeypatch.setattr(
            progress_mod.time, "perf_counter", lambda: next(clock)
        )
        reporter = ProgressReporter(1, label="toy", enabled=False)
        reporter(self._result())
        summary = reporter.summary()
        # The "(N executed, M from cache)" clause is the CI-grepped format.
        assert "(1 executed, 0 from cache)" in summary
        assert "inf" not in summary

    def test_eta_formatting_tiers(self):
        assert ProgressReporter._format_eta(30.0) == "30s"
        assert ProgressReporter._format_eta(90.0) == "1.5m"
        assert ProgressReporter._format_eta(7200.0) == "2.0h"
        assert ProgressReporter._format_eta(float("inf")) == "?"

