"""Experiment harness: sweeps, scaling fits, statistics, and table rendering."""

from repro._lazy import lazy_attributes
from repro.analysis.reporting import banner, format_table, markdown_table
from repro.analysis.stats import Summary, geometric_mean, summarize

# The scaling fits (numpy) and the sweep runner (the experiment engine,
# networkx) load on first use, so ``banner`` & co. stay cheap to import.
__getattr__ = lazy_attributes(
    __name__,
    {
        "repro.analysis.complexity": (
            "PowerLawFit",
            "crossover_point",
            "fit_power_law",
            "max_bound_ratio",
            "speedup_series",
        ),
        "repro.analysis.sweep": (
            "SweepRecord",
            "SweepResult",
            "parameter_grid",
            "run_sweep",
        ),
    },
)

__all__ = [
    "PowerLawFit",
    "Summary",
    "SweepRecord",
    "SweepResult",
    "banner",
    "crossover_point",
    "fit_power_law",
    "format_table",
    "geometric_mean",
    "markdown_table",
    "max_bound_ratio",
    "parameter_grid",
    "run_sweep",
    "speedup_series",
    "summarize",
]
