"""``repro.obs`` — zero-overhead tracing and metrics for the hot paths.

Every claim this reproduction makes is quantitative — round complexities,
kernel speedups, incremental-vs-scratch churn ratios — and this module is
the substrate that makes *where* the time and work go visible: counters,
gauges, histogram samples, and span-based tracing with a pluggable sink
API.

The contract
------------
Observability is **off by default** and must cost nearly nothing when
off.  The global state is a single module-level sink reference; every
entry point checks it first:

* :func:`span` returns one shared no-op context manager when no sink is
  installed (no allocation beyond the call's keyword dict, no clock
  read, no stack bookkeeping);
* :func:`add` / :func:`gauge` / :func:`observe` return immediately;
* hot loops that would pay even a per-iteration function call can guard
  with ``if obs.enabled():`` and skip their instrumentation block
  entirely (the pattern used by the LOCAL round runner and the repair
  loop).

``scripts/check_obs_overhead.py`` gates this contract in CI: the
disabled-sink orientation benchmark median must stay within a few
percent of a baseline with the instrumentation stubbed out.

Sinks
-----
* ``None`` (the default) — disabled, near-zero overhead;
* :class:`~repro.obs.sinks.MemorySink` — collects events in a list, for
  tests and in-process breakdowns (the benchmark suites use it to record
  per-phase medians);
* :class:`~repro.obs.sinks.JsonlSink` — appends one JSON object per
  event to a file for offline analysis with ``scripts/report_trace.py``.

Setting the ``REPRO_TRACE`` environment variable to a path installs a
:class:`JsonlSink` at import time (and, because the variable is
inherited, in every engine worker process too).

Event model
-----------
Every event is a flat JSON-serialisable dict with a ``type``:

* ``span`` — ``{"type", "name", "id", "parent", "start", "dur", "pid",
  "attrs"}``.  Spans nest: ``id`` is unique per process, ``parent`` is
  the id of the enclosing open span (or ``None`` for a root), ``start``
  is a ``perf_counter`` timestamp (process-relative — meaningful for
  ordering and durations, not wall-clock), ``dur`` is seconds.
* ``counter`` / ``gauge`` / ``hist`` — ``{"type", "name", "value",
  "pid"}`` plus optional ``attrs``.  Counters accumulate by summation,
  gauges by last-write-wins, histogram samples are kept raw so the
  reader computes percentiles (p50/p95) offline.

Usage
-----
>>> from repro import obs
>>> from repro.obs.sinks import MemorySink
>>> sink = obs.configure(MemorySink())
>>> with obs.span("repair", graph_n=100) as sp:
...     obs.add("repair.iterations")
...     sp.set(flips=3)
>>> sink.spans("repair")[0]["attrs"]["flips"]
3
>>> obs.disable()
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.sinks import JsonlSink, MemorySink, Sink

__all__ = [
    "JsonlSink",
    "MemorySink",
    "Sink",
    "TRACE_ENV_VAR",
    "add",
    "after_fork_in_child",
    "capture",
    "configure",
    "configure_from_env",
    "current_sink",
    "disable",
    "enabled",
    "gauge",
    "observe",
    "span",
    "use",
]

#: Environment variable naming a JSONL trace file to record into.
TRACE_ENV_VAR = "REPRO_TRACE"

#: The installed sink; ``None`` means observability is disabled.
_sink: Optional[Sink] = None

#: Stack of currently open spans (per process; the simulator, kernels,
#: and engine workers are all single-threaded).
_stack: List["_Span"] = []

#: Process-unique span ids.  Restarted per process; merged traces are
#: disambiguated by the ``pid`` field on every event.
_ids = itertools.count(1)


# ----------------------------------------------------------------------
# Global sink management
# ----------------------------------------------------------------------
def enabled() -> bool:
    """True when a sink is installed (the hot-loop guard)."""
    return _sink is not None


def current_sink() -> Optional[Sink]:
    """The installed sink, or ``None`` when disabled."""
    return _sink


def configure(sink: Sink) -> Sink:
    """Install ``sink`` as the global event destination; returns it."""
    global _sink
    _sink = sink
    return sink


def disable() -> None:
    """Remove the installed sink (closing it) and drop the span stack.

    The stack reset makes ``disable()`` a safe recovery point even if an
    exception escaped an instrumented region without unwinding its span.
    """
    global _sink
    sink, _sink = _sink, None
    _stack.clear()
    if sink is not None:
        sink.close()


def configure_from_env(environ=os.environ) -> Optional[Sink]:
    """Install a :class:`JsonlSink` when ``REPRO_TRACE`` names a path.

    Called once at import, so ``REPRO_TRACE=trace.jsonl python ...``
    traces any entry point — including engine worker processes, which
    inherit the variable but capture per-task events in memory instead
    (see :func:`repro.engine.executor.execute_task`).
    """
    path = environ.get(TRACE_ENV_VAR)
    if path:
        return configure(JsonlSink(path))
    return _sink


def after_fork_in_child() -> None:
    """Reset inherited per-process obs state in a freshly forked worker.

    A fork-based pool's worker initializer calls this before any
    instrumented code runs:

    * the span stack copied from the parent is dropped — those spans
      close in the parent's process, and linking worker spans under them
      would mis-attribute self-time across processes;
    * span ids restart (events are disambiguated by ``pid`` anyway);
    * a sink with a ``reopen_after_fork`` method (:class:`JsonlSink`)
      rebinds to this pid *before* the first span, so the worker never
      emits — or closes — through the parent's inherited file handle.
    """
    global _ids
    _stack.clear()
    _ids = itertools.count(1)
    reopen = getattr(_sink, "reopen_after_fork", None)
    if reopen is not None:
        reopen()


@contextmanager
def use(sink: Optional[Sink]) -> Iterator[Optional[Sink]]:
    """Temporarily swap the global sink (``None`` disables) and restore."""
    global _sink
    previous = _sink
    _sink = sink
    try:
        yield sink
    finally:
        _sink = previous


@contextmanager
def capture() -> Iterator[MemorySink]:
    """Record events into a fresh :class:`MemorySink` for the block.

    The previous sink is fully swapped out (events are *captured*, not
    teed) and the span stack is isolated, so captured spans are rooted
    even when an outer span is open — the engine executor uses this to
    attach one task's events to its result without double-writing them
    to the parent's sink.
    """
    global _sink
    previous_sink = _sink
    previous_stack = _stack[:]
    _sink = MemorySink()
    _stack.clear()
    try:
        yield _sink
    finally:
        _sink = previous_sink
        _stack.clear()
        _stack.extend(previous_stack)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _NullSpan:
    """The shared do-nothing span returned while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


#: Singleton: ``span(...)`` with no sink always returns this instance.
NULL_SPAN = _NullSpan()


class _Span:
    """One live span: times the block, records nesting, emits on exit."""

    __slots__ = ("name", "attrs", "id", "parent", "_start")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.id = 0
        self.parent: Optional[int] = None
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self.id = next(_ids)
        self.parent = _stack[-1].id if _stack else None
        _stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._start
        # Pop robustly: an exception that skipped an inner span's exit
        # must not corrupt the nesting of everything that follows.
        if _stack and _stack[-1] is self:
            _stack.pop()
        else:  # pragma: no cover - defensive unwinding
            try:
                _stack.remove(self)
            except ValueError:
                pass
        sink = _sink
        if sink is not None:
            sink.emit(
                {
                    "type": "span",
                    "name": self.name,
                    "id": self.id,
                    "parent": self.parent,
                    "start": self._start,
                    "dur": dur,
                    "pid": os.getpid(),
                    "attrs": self.attrs,
                }
            )
        return False

    def set(self, **attrs: Any) -> "_Span":
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)
        return self


def span(name: str, **attrs: Any):
    """A context manager timing the enclosed block as a named span.

    With no sink installed this returns the shared :data:`NULL_SPAN`
    immediately; otherwise a :class:`_Span` that assigns itself an id,
    links to the enclosing open span, and emits one ``span`` event when
    the block exits.  ``attrs`` seed the span's attribute dict;
    ``sp.set(...)`` adds more from inside the block.
    """
    if _sink is None:
        return NULL_SPAN
    return _Span(name, attrs)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _emit_metric(
    kind: str, name: str, value: Any, attrs: Dict[str, Any]
) -> None:
    event: Dict[str, Any] = {
        "type": kind,
        "name": name,
        "value": value,
        "pid": os.getpid(),
    }
    if attrs:
        event["attrs"] = attrs
    _sink.emit(event)  # type: ignore[union-attr]  # caller checked


def add(name: str, value: float = 1, **attrs: Any) -> None:
    """Increment counter ``name`` by ``value`` (sums at read time)."""
    if _sink is not None:
        _emit_metric("counter", name, value, attrs)


def gauge(name: str, value: Any, **attrs: Any) -> None:
    """Set gauge ``name`` to ``value`` (last write wins at read time)."""
    if _sink is not None:
        _emit_metric("gauge", name, value, attrs)


def observe(name: str, value: float, **attrs: Any) -> None:
    """Record one histogram sample for ``name`` (percentiles at read time)."""
    if _sink is not None:
        _emit_metric("hist", name, value, attrs)


# REPRO_TRACE=path.jsonl enables the JSONL sink for the whole process.
configure_from_env()
