"""Timings at a reference machine speed.

On a shared VM the same Python code runs up to ~1.8x slower for tens of
seconds at a time while other tenants contend for the host.  Measured on
a 2-core box: 72 back-to-back 100k ``Instance.build`` calls read 0.60 s
or 1.11 s depending on the phase (IQR / median 0.48), while a fixed
calibration loop run right before and after each build slowed by the
same factor; build time divided by the calibration time had IQR / median
0.07.  Raw seconds therefore say more about the neighbours than about
the program.

Every timing the benchmark reports is scaled to the reference speed:
``raw * REFERENCE_PROBE_S / probe``, where ``probe`` is the mean time of
the calibration loop just before and just after the timed work.  The
loop exercises none of the program's code, so a change to the program
cannot move it.  On an uncontended box of the reference kind the factor
is ~1; raw values stay in the raw rows.
"""

from __future__ import annotations

import os
import time

#: Calibration loop time on an uncontended 2-core box (Python 3.11).
REFERENCE_PROBE_S = 0.045


def _calibration_work() -> int:
    """Fixed pure-Python work: dict updates, arithmetic, a keyed sort."""
    table = {}
    acc = 0
    for i in range(200_000):
        table[i & 4095] = i
        acc += table.get((i * 7) & 4095, 0) % 13
    values = [i * 3 for i in range(100_000)]
    values.sort(key=lambda x: -x)
    return acc + values[0]


def probe(cpus=()) -> float:
    """Seconds the calibration loop takes right now.

    With ``cpus``, the loop runs once on each of them (the caller's CPU
    affinity is restored afterwards) and the mean is returned: the served
    stages depend on the server's CPU as much as on the caller's.
    """
    if not cpus:
        t0 = time.perf_counter()
        _calibration_work()
        return time.perf_counter() - t0
    home = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    finally:
        os.sched_setaffinity(0, home)
    return sum(times) / len(times)


class Speed:
    """Scale factors from calibration probes taken around timed work.

    ``mark()`` probes before a stretch of timed work; each ``factor()``
    probes after one piece of it and returns ``REFERENCE_PROBE_S`` over
    the mean of that probe and the one before, so back-to-back pieces
    share their probes.
    """

    def __init__(self, cpus=()) -> None:
        self.cpus = tuple(cpus)
        self.last = probe(self.cpus)
        self.factors = []

    def mark(self) -> None:
        self.last = probe(self.cpus)

    def factor(self) -> float:
        now = probe(self.cpus)
        factor = REFERENCE_PROBE_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return factor

    def timed(self, fn):
        """Run ``fn``; return ``(result, raw_s, scaled_s)``."""
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        return result, raw, raw * self.factor()
