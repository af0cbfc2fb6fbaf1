"""Shared configuration for the benchmark suite.

Every benchmark measures wall-clock time through pytest-benchmark *and*
records the paper-relevant quantity -- round counts, phase counts,
approximation ratios -- in ``benchmark.extra_info`` so that the JSON
output (``--benchmark-json``) contains the rows the experiment report prints.

Run with:

    pytest benchmarks/ --benchmark-only

Add ``--benchmark-json=bench.json`` to capture the extra info.

Perf trajectory files
---------------------
At the end of a timed session, every ``bench_<name>.py`` module that ran
gets a machine-readable ``BENCH_<name>.json`` at the repo root mapping
each benchmark (scenario) to its median wall time in seconds, plus any
``extra_info`` rows.  These files are committed, so the per-PR perf
trajectory of every suite is visible in history; regenerate them with the
command above.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path

import pytest

#: Repo root — conftest lives in <root>/benchmarks/.
REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_provenance() -> dict:
    """Where/when the committed medians were measured.

    Timings are only comparable on the machine that produced them, so
    every ``BENCH_*.json`` records enough to tell two environments apart.
    The regression gate reads only the ``scenarios`` key and ignores
    this block.
    """
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git_sha,
    }


def pytest_configure(config):  # noqa: D103 - pytest hook
    config.addinivalue_line(
        "markers",
        "experiment(id): link a benchmark to a scripts/run_experiments.py "
        "experiment id",
    )


def pytest_sessionfinish(session, exitstatus):
    """Write one ``BENCH_<name>.json`` per benchmarked ``bench_<name>.py``."""
    if os.environ.get("REPRO_BENCH_SMOKE", "") == "1":
        # Smoke runs shrink instances to CI size; merging their medians
        # (keyed by the same test names) would silently overwrite the
        # committed full-scale trajectory.
        return
    benchmark_session = getattr(session.config, "_benchmarksession", None)
    if benchmark_session is None:
        return
    by_module = {}
    for bench in benchmark_session.benchmarks:
        if bench.has_error:
            continue
        stats = getattr(bench, "stats", None)
        if stats is None:  # collected but never timed (--benchmark-disable)
            continue
        module_path = bench.fullname.split("::", 1)[0]
        module = Path(module_path).stem
        if not module.startswith("bench_"):
            continue
        row = {
            "median_seconds": stats.median,
            "rounds": stats.rounds,
        }
        if bench.extra_info:
            row["extra_info"] = dict(bench.extra_info)
        by_module.setdefault(module[len("bench_") :], {})[bench.name] = row
    for name, scenarios in by_module.items():
        target = REPO_ROOT / f"BENCH_{name}.json"
        # Merge into any existing file so a filtered run (-k, single test)
        # refreshes only the scenarios it actually timed instead of
        # silently dropping the rest of the tracked suite.
        merged = {}
        if target.exists():
            try:
                merged = json.loads(target.read_text()).get("scenarios", {})
            except (ValueError, OSError):
                merged = {}
        merged.update(scenarios)
        payload = {
            "suite": f"bench_{name}.py",
            "unit": "seconds (median wall time per scenario)",
            "provenance": bench_provenance(),
            "scenarios": dict(sorted(merged.items())),
        }
        target.write_text(json.dumps(payload, indent=2, default=str) + "\n")


def pytest_sessionstart(session):
    """Give every timed scenario a ``peak_mb`` row in ``extra_info``.

    Wraps ``BenchmarkFixture.__call__`` and ``pedantic`` (the plugin
    type-checks the funcarg, so a wrapper *object* is not an option): the
    benchmarked callable first runs once under
    :func:`_head_to_head.peak_memory`, after ``pedantic``'s ``setup``, so
    the committed ``BENCH_*.json`` files report the algorithm's
    Python-heap peak alongside the median — while the tracing overhead
    never contaminates the timed rounds that follow.  The regression
    gate keeps reading only ``median_seconds``; the memory column is
    trajectory data.  Smoke runs skip the extra pass — their shrunken
    instances say nothing about full-scale footprints.
    """
    try:
        from pytest_benchmark.fixture import BenchmarkFixture
    except ImportError:  # pragma: no cover - plugin absent, nothing to wrap
        return
    if getattr(BenchmarkFixture.__call__, "_records_peak_mb", False):
        return
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    from _head_to_head import peak_memory

    timed_call = BenchmarkFixture.__call__
    timed_pedantic = BenchmarkFixture.pedantic

    def record_peak(fixture, run):
        if os.environ.get("REPRO_BENCH_SMOKE", "") != "1":
            peak_mb, _ = peak_memory(run)
            fixture.extra_info["peak_mb"] = round(peak_mb, 3)

    def call_with_peak(self, function_to_benchmark, *args, **kwargs):
        record_peak(self, lambda: function_to_benchmark(*args, **kwargs))
        return timed_call(self, function_to_benchmark, *args, **kwargs)

    def pedantic_with_peak(self, target, args=(), kwargs=None, setup=None, **opts):
        # ``setup`` runs before the traced run too, outside the trace.
        run_args, run_kwargs = (setup and setup()) or (args, kwargs or {})
        record_peak(self, lambda: target(*run_args, **run_kwargs))
        return timed_pedantic(self, target, args, kwargs, setup=setup, **opts)

    call_with_peak._records_peak_mb = True
    BenchmarkFixture.__call__ = call_with_peak
    BenchmarkFixture.pedantic = pedantic_with_peak


@pytest.fixture
def record_rows(benchmark):
    """Helper to stash arbitrary result rows in the benchmark's extra info."""

    def _record(**info):
        for key, value in info.items():
            benchmark.extra_info[key] = value

    return _record
