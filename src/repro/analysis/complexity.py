"""Growth-exponent fitting for round-complexity experiments.

The paper's results are asymptotic bounds (O(L·Δ²), O(Δ⁴), O(Δ), ...).
The benchmark harness measures round counts across parameter sweeps and
uses this module to

* fit a power law ``rounds ≈ a · x^b`` on a log--log scale and report the
  exponent ``b`` (experiments compare it against the theorem's exponent), and
* check that the measured values never exceed an explicit-constant version
  of the bound (``max_bound_ratio``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``y ≈ coefficient · x^exponent``."""

    exponent: float
    coefficient: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Predicted y value at ``x``."""
        return self.coefficient * x**self.exponent

    def __str__(self) -> str:
        return (
            f"y ≈ {self.coefficient:.3g} · x^{self.exponent:.2f} "
            f"(R²={self.r_squared:.3f})"
        )


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y = c · x^b`` by linear regression on logarithms.

    Requires at least two distinct positive x values and positive y values
    (zero y values are clamped to 1, which is the right floor for round
    counts: an algorithm cannot take fewer than one round once it does
    anything at all).
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a power law")
    xs_f = [float(x) for x in xs]
    if any(x <= 0 for x in xs_f):
        raise ValueError("x values must be positive")
    if len(set(xs_f)) < 2:
        raise ValueError("need at least two distinct x values")

    # Round counts of 0 (an algorithm that never had to act) are clamped to
    # 1 so the logarithm exists; positive fractional values are left alone.
    log_x = [math.log(x) for x in xs_f]
    log_y = [math.log(y) if y > 0 else 0.0 for y in map(float, ys)]
    # Closed-form ordinary least squares of log_y on log_x.
    mean_x = sum(log_x) / len(log_x)
    mean_y = sum(log_y) / len(log_y)
    sxx = sum((x - mean_x) ** 2 for x in log_x)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(log_x, log_y))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residual = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(log_x, log_y))
    total = sum((y - mean_y) ** 2 for y in log_y)
    r_squared = 1.0 if total == 0 else max(0.0, 1.0 - residual / total)
    return PowerLawFit(
        exponent=slope,
        coefficient=math.exp(intercept),
        r_squared=r_squared,
    )


def max_bound_ratio(
    xs: Sequence[float], ys: Sequence[float], bound: Callable[[float], float]
) -> float:
    """The worst observed ``y / bound(x)`` ratio.

    A value ≤ 1 certifies that every measurement respects the explicit
    bound; experiments report this next to the fitted exponent.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    worst = 0.0
    for x, y in zip(xs, ys):
        b = bound(x)
        if b <= 0:
            raise ValueError(f"bound({x}) = {b} must be positive")
        worst = max(worst, y / b)
    return worst

