"""Small statistics helpers shared by sweeps and benchmark reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample of measurements."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.2f} std={self.std:.2f} "
            f"min={self.minimum:.2f} median={self.median:.2f} max={self.maximum:.2f}"
        )


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics of a non-empty sequence of numbers."""
    if not values:
        raise ValueError("cannot summarise an empty sequence")
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    mean = sum(ordered) / n
    variance = sum((v - mean) ** 2 for v in ordered) / n
    mid = n // 2
    median = ordered[mid] if n % 2 == 1 else 0.5 * (ordered[mid - 1] + ordered[mid])
    return Summary(
        count=n,
        mean=mean,
        std=math.sqrt(variance),
        minimum=ordered[0],
        median=median,
        maximum=ordered[-1],
    )

