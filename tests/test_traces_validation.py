"""Statistical trace validation suite."""

import numpy as np
import pytest

from repro.config.presets import paper_system_config
from repro.traces.library import make_paper_traces
from oracles.trace_validation import (
    ValidationCheck,
    all_valid,
    daily_totals,
    hourly_profile,
    lag1_autocorrelation,
    validate_paper_traces,
)
from tests.conftest import constant_traces


class TestHelpers:
    def test_hourly_profile_shape(self):
        values = np.arange(48, dtype=float)
        profile = hourly_profile(values)
        assert profile.size == 24
        assert profile[0] == pytest.approx((0 + 24) / 2)

    def test_lag1_autocorrelation_persistent(self):
        rng = np.random.default_rng(0)
        noise = rng.normal(size=2000)
        ar = np.zeros(2000)
        for i in range(1, 2000):
            ar[i] = 0.8 * ar[i - 1] + noise[i]
        assert lag1_autocorrelation(ar) > 0.6

    def test_lag1_autocorrelation_white(self):
        rng = np.random.default_rng(1)
        white = rng.normal(size=2000)
        assert abs(lag1_autocorrelation(white)) < 0.1

    def test_lag1_constant_is_zero(self):
        assert lag1_autocorrelation(np.ones(100)) == 0.0

    def test_lag1_tiny_series(self):
        assert lag1_autocorrelation(np.array([1.0, 2.0])) == 0.0

    def test_daily_totals(self):
        values = np.ones(50)
        totals = daily_totals(values)
        assert totals.size == 2
        assert np.allclose(totals, 24.0)


class TestPaperTraceValidation:
    @pytest.mark.parametrize("seed", [1, 42, 20130708])
    def test_paper_traces_pass_all_checks(self, seed):
        system = paper_system_config()
        traces = make_paper_traces(system, seed=seed)
        checks = validate_paper_traces(traces)
        failing = [str(c) for c in checks if not c.holds]
        assert all_valid(checks), "\n".join(failing)

    def test_flat_traces_fail_diurnal_checks(self):
        traces = constant_traces(744)
        checks = validate_paper_traces(traces)
        assert not all_valid(checks)
        by_name = {c.name: c for c in checks}
        assert not by_name["demand diurnal ratio"].holds

    def test_check_str_renders(self):
        check = ValidationCheck(name="x", holds=True, observed=1.0,
                                requirement="> 0")
        assert "OK" in str(check)
        check = ValidationCheck(name="x", holds=False, observed=1.0,
                                requirement="> 2")
        assert "FAIL" in str(check)

    def test_check_count_stable(self):
        # The validation suite is part of the public contract; adding
        # or removing checks should be a conscious decision.
        system = paper_system_config()
        traces = make_paper_traces(system, seed=9)
        assert len(validate_paper_traces(traces)) == 10
