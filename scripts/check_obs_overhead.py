#!/usr/bin/env python3
"""CI gate: disabled observability must be free on the hot paths.

``repro.obs`` promises near-zero overhead when no sink is installed.
This script measures that promise on the gate's reference workload — the
fixed ``orientation_smoke`` scenario solved by the compact stable
orientation driver (the same scenario ``check_bench_regression.py``
re-times) — by comparing two medians:

* **instrumented**: the shipped code with no sink installed (every
  ``obs.span`` call hits the module-level ``_sink is None`` check);
* **baseline**: the same code with ``repro.obs`` replaced, in every
  instrumented module's namespace, by a stub whose ``span``/``add``/
  ``observe``/``gauge`` are bare no-op functions and whose ``enabled``
  is hardwired ``False`` — as close to "the instrumentation was never
  written" as is reachable without a second source tree.

Runs are interleaved (A/B/A/B...) so drift on a shared CI runner hits
both sides equally, and the assertion allows a relative margin plus a
small absolute floor (sub-millisecond medians make pure percentages
noise-dominated)::

    python scripts/check_obs_overhead.py
    python scripts/check_obs_overhead.py --rounds 25 --max-overhead 0.05

Exit status 0 when the instrumented median is within bounds, 1 with a
diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from typing import Optional, Sequence

from repro import obs
from repro.core.orientation import run_stable_orientation
from repro.workloads import orientation_smoke

#: Modules whose hot paths import ``obs``; the stub is patched into each.
_INSTRUMENTED_MODULES = (
    "repro.local_model.runner",
    "repro.core.orientation._kernels",
    "repro.core.orientation.incremental",
    "repro.engine.executor",
)


class _StubNullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return self


_STUB_SPAN = _StubNullSpan()


class _StubObs:
    """The "never instrumented" baseline: all entry points are no-ops."""

    @staticmethod
    def enabled():
        return False

    @staticmethod
    def span(name, **attrs):
        return _STUB_SPAN

    @staticmethod
    def add(name, value=1, **attrs):
        return None

    @staticmethod
    def gauge(name, value, **attrs):
        return None

    @staticmethod
    def observe(name, value, **attrs):
        return None

    @staticmethod
    def capture():
        raise RuntimeError("the stub baseline cannot capture events")


def _patch_obs(replacement) -> dict:
    """Swap the ``obs`` binding in every instrumented module; return undo map."""
    previous = {}
    for name in _INSTRUMENTED_MODULES:
        module = sys.modules.get(name)
        if module is None or not hasattr(module, "obs"):
            continue
        previous[name] = module.obs
        module.obs = replacement
    return previous


def _restore_obs(previous: dict) -> None:
    for name, original in previous.items():
        sys.modules[name].obs = original


def measure(rounds: int):
    """Interleaved medians (instrumented_seconds, baseline_seconds)."""
    if obs.enabled():
        raise SystemExit(
            "a sink is installed (REPRO_TRACE set?); the overhead gate "
            "measures the *disabled* path — unset it and re-run"
        )
    problem = orientation_smoke(compact=True)
    workload = lambda: run_stable_orientation(problem)  # noqa: E731

    # Warm every lazy cost both sides share: kernel imports, memoized
    # repr-rank tables on the problem instance, allocator state.
    workload()
    stub = _StubObs()

    instrumented = []
    baseline = []
    for _ in range(rounds):
        start = time.perf_counter()
        workload()
        instrumented.append(time.perf_counter() - start)

        previous = _patch_obs(stub)
        try:
            start = time.perf_counter()
            workload()
            baseline.append(time.perf_counter() - start)
        finally:
            _restore_obs(previous)
    return statistics.median(instrumented), statistics.median(baseline)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Assert disabled-sink observability overhead is within "
        "bounds on the orientation_smoke workload."
    )
    parser.add_argument(
        "--rounds", type=int, default=15,
        help="timed rounds per side (interleaved; default 15)",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=0.05,
        help="allowed relative overhead of the disabled-sink path over the "
        "stubbed baseline (default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--abs-floor", type=float, default=0.002,
        help="absolute slack in seconds added to the budget — timer noise "
        "on sub-millisecond medians (default 0.002)",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    instrumented, baseline = measure(args.rounds)
    budget = baseline * (1.0 + args.max_overhead) + args.abs_floor
    overhead = (instrumented / baseline - 1.0) if baseline > 0 else 0.0
    verdict = "OK" if instrumented <= budget else "FAIL"
    print(
        f"[{verdict}] orientation_smoke disabled-sink median "
        f"{instrumented * 1e3:.3f}ms vs stubbed baseline "
        f"{baseline * 1e3:.3f}ms ({overhead:+.1%}; budget "
        f"{budget * 1e3:.3f}ms = baseline x {1 + args.max_overhead:.2f} "
        f"+ {args.abs_floor * 1e3:.1f}ms)"
    )
    return 0 if instrumented <= budget else 1


if __name__ == "__main__":
    sys.exit(main())
