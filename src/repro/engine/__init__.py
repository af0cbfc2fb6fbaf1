"""Parallel experiment engine: sharded, cached, resumable sweeps.

The engine separates experiment *specification* from *execution*:

1. **Specify** — :class:`ExperimentSpec` names a measure function (an
   importable callable returning a metrics mapping), a parameter grid
   (:func:`parameter_grid`), and seeds.  Expansion yields
   :class:`TaskSpec` objects, each with a deterministic content hash over
   ``(measure, params, seed)``.
2. **Execute** — :func:`run_experiment` shards pending tasks across a
   process pool (``jobs > 1``) or runs them in-process (``jobs == 1``),
   always returning results in deterministic task order.
3. **Cache** — with a :class:`ResultCache`, completed tasks are appended
   to an on-disk JSON-lines store as they finish; a re-run (``resume``)
   executes only tasks whose hashes are missing, so interrupted sweeps
   continue where they stopped and unchanged sweeps cost nothing.
4. **Analyze** — :meth:`ResultSet.series` reduces the results to
   ``(xs, ys)`` per parameter, which ``repro.analysis`` fits and
   tabulates; nothing downstream needs to know how results were produced.

Typical use::

    from repro.engine import ExperimentSpec, ResultCache, parameter_grid, run_experiment
    from repro.engine import library

    spec = ExperimentSpec(
        name="E1",
        measure=library.proposal_rounds_vs_delta,
        grid=parameter_grid(delta=[2, 4, 6, 8]),
        seeds=(0, 1, 2),
    )
    results = run_experiment(spec, jobs=4, cache=ResultCache(".sweep-cache"))
    xs, ys = results.series("delta", "game_rounds")

New execution backends (threads, a job queue, a cluster) only need to
implement the :func:`run_tasks` contract: tasks in, ordered results out.
"""

from repro.engine import library
from repro.engine.cache import ResultCache, open_cache
from repro.engine.executor import (
    TaskError,
    default_jobs,
    execute_task,
    run_experiment,
    run_tasks,
)
from repro.engine.progress import ProgressReporter
from repro.engine.results import ResultSet, TaskResult, result_from_record
from repro.engine.spec import (
    ExperimentSpec,
    TaskSpec,
    canonical_json,
    measure_fingerprint,
    measure_reference,
    parameter_grid,
    resolve_measure,
)

__all__ = [
    "ExperimentSpec",
    "library",
    "ProgressReporter",
    "ResultCache",
    "ResultSet",
    "TaskError",
    "TaskResult",
    "TaskSpec",
    "canonical_json",
    "default_jobs",
    "execute_task",
    "measure_fingerprint",
    "measure_reference",
    "open_cache",
    "parameter_grid",
    "resolve_measure",
    "result_from_record",
    "run_experiment",
    "run_tasks",
]
