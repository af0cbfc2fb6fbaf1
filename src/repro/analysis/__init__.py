"""Experiment analysis: scaling fits, statistics, and table rendering."""

from repro._lazy import lazy_attributes
from repro.analysis.reporting import banner, format_table, markdown_table
from repro.analysis.stats import Summary, summarize

# The scaling fits load on first use: ``python -m repro`` imports
# ``banner`` on every start, served restarts included.
__getattr__ = lazy_attributes(
    __name__,
    {
        "repro.analysis.complexity": (
            "PowerLawFit",
            "fit_power_law",
            "max_bound_ratio",
        ),
    },
)

__all__ = [
    "PowerLawFit",
    "Summary",
    "banner",
    "fit_power_law",
    "format_table",
    "markdown_table",
    "max_bound_ratio",
    "summarize",
]
