"""Task execution: serial fallback and a sharded process-pool backend.

:func:`run_tasks` is the low-level primitive — give it tasks, get results
back *in task order* no matter which worker finished first.  With
``jobs == 1`` everything runs in-process (and may therefore use
non-importable measures such as lambdas); with ``jobs > 1`` tasks are
sharded across a :class:`concurrent.futures.ProcessPoolExecutor` in
contiguous chunks, each worker re-importing the measure function by its
``module:qualname`` reference.

:func:`run_experiment` is the high-level entry point every consumer
(CLI, ``scripts/run_experiments.py``, benchmarks, ``analysis.sweep``)
shares: expand the spec, answer what the cache already knows, execute
only the missing tasks, persist fresh results, and return a merged
:class:`~repro.engine.results.ResultSet` in deterministic order.

Failures are never swallowed: one crashing task aborts the run (after
letting already-submitted tasks drain into the cache), because a silently
dropped grid point would bias the reported scaling.  Completed work stays
cached, so fixing the bug and re-running with ``resume=True`` continues
where the sweep stopped.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.cache import ResultCache
from repro.engine.progress import ProgressCallback
from repro.engine.results import ResultSet, TaskResult, result_from_record
from repro.engine.spec import (
    ExperimentSpec,
    MeasureFn,
    TaskSpec,
    resolve_measure,
)


class TaskError(RuntimeError):
    """A measure raised; names the exact task that failed.

    ``cause`` is the original exception in-process, or its ``repr`` when
    the failure happened on a pool worker (tracebacks do not reliably
    survive pickling back across the pool).
    """

    def __init__(self, description: str, cause: object) -> None:
        super().__init__(f"task {description} failed: {cause}")
        self.description = description
        self.cause = cause


def default_jobs() -> int:
    """Worker count for ``--jobs 0`` / "use the whole machine" requests."""
    return max(1, os.cpu_count() or 1)


def execute_task(task: TaskSpec, measure: Optional[MeasureFn] = None) -> TaskResult:
    """Run one task in the current process and time it.

    ``measure`` short-circuits reference resolution for in-process callers
    holding a non-importable callable (the serial path of :func:`run_tasks`).

    With observability enabled the measure runs under a captured
    ``engine.task`` span and the events ride back on the result's
    ``trace_events`` — the only channel that reliably crosses the process
    pool (workers must not write to a sink file the parent also holds).
    The parent re-emits them into its own sink in ``run_experiment``.
    """
    fn = measure if measure is not None else resolve_measure(task.measure_ref)
    trace_events: List[Dict[str, object]] = []
    start = time.perf_counter()
    if obs.enabled():
        with obs.capture() as mem:
            with obs.span(
                "engine.task",
                experiment=task.experiment,
                seed=task.seed,
                params=dict(task.params),
            ):
                values = dict(fn(seed=task.seed, **dict(task.params)))
        trace_events = mem.events
    else:
        values = dict(fn(seed=task.seed, **dict(task.params)))
    elapsed = time.perf_counter() - start
    return TaskResult(
        experiment=task.experiment,
        params=dict(task.params),
        seed=task.seed,
        values=values,
        elapsed_seconds=elapsed,
        task_hash=task.task_hash(),
        cached=False,
        index=task.index,
        trace_events=trace_events,
    )


#: Worker-side failure record: (failing task's description, repr of the cause).
ChunkFailure = Tuple[str, str]


def _execute_chunk(
    tasks: Sequence[TaskSpec],
) -> Tuple[List[Tuple[int, TaskResult]], Optional[ChunkFailure]]:
    """Worker-side entry point: run a contiguous shard of tasks.

    Returns the ``(index, result)`` pairs that completed plus an optional
    failure record, instead of raising: results finished before a crash
    must reach the parent (and its cache), and the failure must name the
    *actual* failing task, neither of which an exception flying across
    the pool preserves.
    """
    completed: List[Tuple[int, TaskResult]] = []
    for task in tasks:
        try:
            completed.append((task.index, execute_task(task)))
        except Exception as exc:  # noqa: BLE001 - reported via the failure record
            return completed, (task.describe(), repr(exc))
    return completed, None


def _chunk_size(num_tasks: int, jobs: int) -> int:
    """Contiguous shard size: several chunks per worker to balance stragglers."""
    return max(1, num_tasks // (jobs * 4))


def run_tasks(
    tasks: Sequence[TaskSpec],
    *,
    jobs: int = 1,
    measure: Optional[MeasureFn] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[TaskResult]:
    """Execute ``tasks`` and return results in task order.

    ``jobs == 1`` (or a single task) runs serially in-process; larger
    values shard across a process pool.  Parallel execution requires the
    tasks' measure references to be importable — checked up front so the
    failure is a clear message, not a pickling traceback.
    """
    if jobs < 1:
        jobs = default_jobs()
    if not tasks:
        return []

    if jobs == 1 or len(tasks) == 1:
        results: List[TaskResult] = []
        for task in tasks:
            try:
                result = execute_task(task, measure)
            except Exception as exc:  # noqa: BLE001 - re-raised with context
                raise TaskError(task.describe(), exc) from exc
            results.append(result)
            if progress is not None:
                progress(result)
        return results

    # Fail fast (and helpfully) if the measure cannot be re-imported on a
    # worker; also warms the import so the first chunk is not slower.
    for reference in {task.measure_ref for task in tasks}:
        resolve_measure(reference)

    size = _chunk_size(len(tasks), jobs)
    chunks = [tasks[i : i + size] for i in range(0, len(tasks), size)]
    by_index: Dict[int, TaskResult] = {}
    first_error: Optional[TaskError] = None
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        future_to_chunk = {
            pool.submit(_execute_chunk, chunk): chunk for chunk in chunks
        }
        for future in concurrent.futures.as_completed(future_to_chunk):
            chunk = future_to_chunk[future]
            try:
                completed, failure = future.result()
            except Exception as exc:  # noqa: BLE001 - pool-level failure
                # Not a measure crash (those come back as failure records):
                # the pool itself broke, e.g. an unpicklable payload or a
                # killed worker.  Attribute it to the chunk, not one task.
                if first_error is None:
                    first_error = TaskError(
                        f"chunk starting at {chunk[0].describe()}", exc
                    )
                    for pending in future_to_chunk:
                        pending.cancel()
                continue
            # Results that finished before any crash still count (and are
            # cached via ``progress``), so a fixed-up re-run resumes them.
            for index, result in completed:
                by_index[index] = result
                if progress is not None:
                    progress(result)
            if failure is not None and first_error is None:
                first_error = TaskError(*failure)
                for pending in future_to_chunk:
                    pending.cancel()
    if first_error is not None:
        raise first_error
    return [by_index[task.index] for task in tasks]


def run_experiment(
    spec: ExperimentSpec,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    resume: bool = True,
    progress: Optional[ProgressCallback] = None,
) -> ResultSet:
    """Expand ``spec``, execute what the cache does not answer, merge.

    With a ``cache`` and ``resume=True``, tasks whose content hash is
    already stored are restored instead of executed (their results are
    reported through ``progress`` with ``cached=True``).  Fresh results
    are appended to the cache as they complete, so an interrupted sweep
    resumes from the last finished task.  ``resume=False`` ignores (and
    re-executes over) any existing entries.

    The returned :class:`ResultSet` is always in deterministic task order
    — identical for serial and parallel runs of the same spec.
    """
    tasks = spec.tasks()
    cached_records = cache.load() if (cache is not None and resume) else {}

    restored: List[TaskResult] = []
    pending: List[TaskSpec] = []
    for task in tasks:
        record = cached_records.get(task.task_hash())
        if record is not None:
            result = result_from_record(
                record, experiment=task.experiment, index=task.index
            )
            restored.append(result)
            if progress is not None:
                progress(result)
        else:
            pending.append(task)

    measure = spec.measure_fn() if callable(spec.measure) else None

    def _record_and_report(result: TaskResult) -> None:
        if cache is not None:
            cache.append(result.to_record())
        if result.trace_events:
            # Fresh results carry their captured task events (possibly
            # from a pool worker); forward them into the parent's sink so
            # a single JSONL trace covers the whole sweep.  Cache-restored
            # results are not re-emitted — their work did not happen in
            # this run.
            sink = obs.current_sink()
            if sink is not None:
                for event in result.trace_events:
                    sink.emit(event)
        if progress is not None:
            progress(result)

    executed = run_tasks(
        pending, jobs=jobs, measure=measure, progress=_record_and_report
    )

    result_set = ResultSet(name=spec.name, results=restored + executed)
    result_set.sort()
    return result_set
