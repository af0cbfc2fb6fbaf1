"""Tests for the analysis harness (series, fits, stats, reporting)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    banner,
    fit_power_law,
    format_table,
    markdown_table,
    max_bound_ratio,
    summarize,
)
from repro.engine import ExperimentSpec, parameter_grid, run_experiment


class TestPowerLawFit:
    def test_recovers_exact_exponent(self):
        xs = [2, 4, 8, 16, 32]
        ys = [3 * x**2 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.predict(10) == pytest.approx(300.0, rel=1e-6)
        assert "x^2.00" in str(fit)

    def test_recovers_linear_growth(self):
        xs = [1, 2, 4, 8]
        ys = [5 * x for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(1.0, abs=1e-6)

    def test_zero_values_clamped(self):
        fit = fit_power_law([1, 2, 4], [0, 0, 0])
        assert fit.exponent == pytest.approx(0.0, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            fit_power_law([0, 1], [1, 2])
        with pytest.raises(ValueError):
            fit_power_law([2, 2], [1, 2])

    @given(
        exponent=st.floats(min_value=0.5, max_value=4.0),
        coefficient=st.floats(min_value=0.5, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_recovers_synthetic_power_laws(self, exponent, coefficient):
        xs = [2.0, 3.0, 5.0, 8.0, 13.0]
        ys = [coefficient * x**exponent for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(exponent, abs=1e-6)


class TestBoundsAndComparisons:
    def test_max_bound_ratio(self):
        xs = [1, 2, 3]
        ys = [2, 8, 18]
        ratio = max_bound_ratio(xs, ys, bound=lambda x: 2 * x**2)
        assert ratio == pytest.approx(1.0)

    def test_max_bound_ratio_validation(self):
        with pytest.raises(ValueError):
            max_bound_ratio([1], [1, 2], bound=lambda x: x)
        with pytest.raises(ValueError):
            max_bound_ratio([1], [1], bound=lambda x: 0)


class TestStats:
    def test_summary(self):
        summary = summarize([1, 2, 3, 4])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.minimum == 1 and summary.maximum == 4
        assert "mean=2.50" in str(summary)

    def test_summary_odd_length_median(self):
        assert summarize([5, 1, 3]).median == 3

    def test_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestSweep:
    def test_parameter_grid(self):
        grid = parameter_grid(a=[1, 2], b=["x"])
        assert grid == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]

    def test_run_experiment_and_series(self):
        def measure(*, seed, delta):
            return {"rounds": delta * 10 + seed}

        result = run_experiment(
            ExperimentSpec(
                "demo", measure, parameter_grid(delta=[1, 2, 3]), seeds=(0, 1)
            )
        )
        assert len(result) == 6
        xs, ys = result.series("delta", "rounds")
        assert xs == [1.0, 2.0, 3.0]
        assert ys == [10.5, 20.5, 30.5]
        assert result.values_of("rounds")
        filtered = result.filter(delta=2)
        assert len(filtered) == 2

    def test_run_experiment_progress_callback(self):
        messages = []
        run_experiment(
            ExperimentSpec(
                "demo", lambda *, seed, x: {"v": x}, parameter_grid(x=[1]), seeds=(0,)
            ),
            progress=messages.append,
        )
        assert len(messages) == 1


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", math.pi]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        assert "3.14" in text

    def test_format_table_validates_width(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_markdown_table(self):
        text = markdown_table(["a", "b"], [[1, 2]])
        assert text.splitlines()[0] == "| a | b |"
        assert "| 1 | 2 |" in text
        with pytest.raises(ValueError):
            markdown_table(["a"], [[1, 2]])

    def test_banner(self):
        text = banner("hello", width=10)
        assert "hello" in text
        assert text.splitlines()[0] == "=" * 10
