"""Typed result records produced by the experiment engine.

A :class:`TaskResult` is the flat, JSON-serialisable outcome of one task;
a :class:`ResultSet` is the ordered collection for a whole experiment.
``ResultSet.series`` reduces it to the ``(xs, ys)`` pairs that
:mod:`repro.analysis` fits power laws to and renders as tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence


@dataclass
class TaskResult:
    """Outcome of one executed (or cache-restored) task."""

    experiment: str
    params: Dict[str, Any]
    seed: int
    values: Dict[str, Any]
    elapsed_seconds: float
    task_hash: str
    cached: bool = False
    index: int = 0
    #: Observability events captured while the task ran (empty unless a
    #: sink was enabled).  Persisted in the cache record, so traces
    #: recorded on pool workers propagate back through the existing JSONL
    #: plumbing and survive cache restores.
    trace_events: List[Dict[str, Any]] = field(default_factory=list)

    def to_record(self) -> Dict[str, Any]:
        """The JSON-line payload persisted by :mod:`repro.engine.cache`."""
        record = {
            "task_hash": self.task_hash,
            "experiment": self.experiment,
            "params": dict(self.params),
            "seed": self.seed,
            "values": dict(self.values),
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.trace_events:
            record["trace"] = list(self.trace_events)
        return record


@dataclass
class ResultSet:
    """All results of one engine run, in deterministic task order."""

    name: str
    results: List[TaskResult] = field(default_factory=list)

    def append(self, result: TaskResult) -> None:
        self.results.append(result)

    def sort(self) -> None:
        """Restore deterministic task order after out-of-order completion."""
        self.results.sort(key=lambda r: r.index)

    @property
    def executed_count(self) -> int:
        """Tasks that actually ran in this invocation (cache misses)."""
        return sum(1 for r in self.results if not r.cached)

    @property
    def cached_count(self) -> int:
        """Tasks answered from the on-disk cache (zero new work)."""
        return sum(1 for r in self.results if r.cached)

    def values_of(self, value: str) -> List[Any]:
        return [r.values[value] for r in self.results]

    def filter(self, **params: Any) -> "ResultSet":
        subset = ResultSet(name=self.name)
        for result in self.results:
            if all(result.params.get(k) == v for k, v in params.items()):
                subset.append(result)
        return subset

    def series(
        self,
        x_param: str,
        value: str,
        reduce: Callable[[Sequence[float]], float] = None,
    ) -> tuple:
        """Aggregate ``value`` per distinct ``x_param``.

        Returns ``(xs, ys)`` sorted by x, as floats.  ``reduce`` defaults
        to the mean over seeds.
        """
        if reduce is None:
            reduce = lambda vals: sum(vals) / len(vals)  # noqa: E731
        grouped: Dict[Any, List[float]] = {}
        for result in self.results:
            grouped.setdefault(result.params[x_param], []).append(result.values[value])
        xs = sorted(grouped)
        return [float(x) for x in xs], [float(reduce(grouped[x])) for x in xs]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


def result_from_record(
    record: Mapping[str, Any], *, experiment: str, index: int
) -> TaskResult:
    """Rehydrate a cached JSON record into a :class:`TaskResult`.

    The experiment label and ordering index come from the *current* task,
    not the record, so a cache shared between differently named sweeps
    still reports under the caller's experiment name.
    """
    return TaskResult(
        experiment=experiment,
        params=dict(record.get("params", {})),
        seed=int(record.get("seed", 0)),
        values=dict(record["values"]),
        elapsed_seconds=float(record.get("elapsed_seconds", 0.0)),
        task_hash=str(record["task_hash"]),
        cached=True,
        index=index,
        trace_events=list(record.get("trace", [])),
    )
