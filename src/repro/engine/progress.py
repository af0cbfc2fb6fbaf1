"""Progress reporting for engine runs.

The executor calls a plain ``Callable[[TaskResult], None]`` after every
task, so anything — a logger, a list's ``append`` — can observe progress.
:class:`ProgressReporter` is the standard implementation: a one-line-per-
task counter on stderr that distinguishes cache hits from fresh work and
prints a final summary (how many tasks ran vs. were restored), which is
how a ``--resume`` run visibly reports "0 executed".
"""

from __future__ import annotations

import math
import sys
import time
from typing import Callable, Optional, TextIO

from repro.engine.results import TaskResult

ProgressCallback = Callable[[TaskResult], None]


class ProgressReporter:
    """Counts task completions and prints ``[done/total]`` lines."""

    def __init__(
        self,
        total: int,
        *,
        label: str = "",
        stream: Optional[TextIO] = None,
        enabled: bool = True,
    ) -> None:
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled
        self.done = 0
        self.executed = 0
        self.cached = 0
        self._started = time.perf_counter()

    def __call__(self, result: TaskResult) -> None:
        self.done += 1
        if result.cached:
            self.cached += 1
        else:
            self.executed += 1
        if self.enabled:
            origin = "cache" if result.cached else f"{result.elapsed_seconds:.3f}s"
            prefix = f"{self.label}: " if self.label else ""
            self._emit(
                f"{prefix}[{self.done}/{self.total}] "
                f"{result.experiment} {self._params(result)} ({origin})"
                f"{self._pace()}"
            )

    @staticmethod
    def _params(result: TaskResult) -> str:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(result.params.items()))
        return f"{pairs} seed={result.seed}".strip()

    def _pace(self) -> str:
        """`` [rate/s eta Ns]`` suffix once a rate is measurable.

        Uses completions (cache hits included — they consume grid points
        just the same) over wall time; empty during the first instants of
        a run, where a rate would be noise.
        """
        elapsed = time.perf_counter() - self._started
        # elapsed can be 0 exactly (first task under the timer resolution)
        # or denormal-tiny (rate overflows to inf); both make the suffix
        # meaningless, so skip it rather than print inf/nan.
        if self.done == 0 or elapsed <= 0:
            return ""
        rate = self.done / elapsed
        remaining = max(self.total - self.done, 0)
        if rate <= 0 or not math.isfinite(rate):
            return ""
        return f" [{rate:.1f}/s eta {self._format_eta(remaining / rate)}]"

    @staticmethod
    def _format_eta(seconds: float) -> str:
        if not math.isfinite(seconds):
            return "?"
        if seconds >= 3600:
            return f"{seconds / 3600:.1f}h"
        if seconds >= 60:
            return f"{seconds / 60:.1f}m"
        return f"{seconds:.0f}s"

    def summary(self) -> str:
        elapsed = time.perf_counter() - self._started
        rate = self.done / elapsed if elapsed > 0 and self.done else 0.0
        if not math.isfinite(rate):
            rate = 0.0
        # The "(N executed, M from cache)" clause is load-bearing: CI's
        # resume smoke greps for it verbatim.  Additions go after it.
        return (
            f"{self.label or 'sweep'}: {self.done} tasks "
            f"({self.executed} executed, {self.cached} from cache) "
            f"in {elapsed:.2f}s ({rate:.1f} tasks/s)"
        )

    def close(self) -> None:
        if self.enabled:
            self._emit(self.summary())

    def _emit(self, message: str) -> None:
        print(message, file=self.stream)
        try:
            self.stream.flush()
        except (AttributeError, ValueError):
            pass

