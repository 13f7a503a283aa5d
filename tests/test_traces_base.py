"""Trace and TraceSet containers."""

import numpy as np
import pytest

from repro.exceptions import HorizonMismatchError, TraceError
from repro.traces.base import Trace, TraceSet
from tests.conftest import constant_traces


class TestTrace:
    def test_basic_stats(self):
        trace = Trace("demand", [1.0, 2.0, 3.0])
        assert trace.mean == pytest.approx(2.0)
        assert trace.peak == 3.0
        assert trace.total == 6.0
        assert len(trace) == 3
        assert trace[1] == 2.0

    def test_summary_keys(self):
        summary = Trace("x", [1.0, 2.0]).summary()
        assert set(summary) == {"mean", "std", "min", "max", "total"}

    def test_immutable(self):
        trace = Trace("x", [1.0, 2.0])
        with pytest.raises(ValueError):
            trace.values[0] = 5.0

    def test_rejects_negative(self):
        with pytest.raises(TraceError):
            Trace("x", [1.0, -0.1])

    def test_rejects_nan(self):
        with pytest.raises(TraceError):
            Trace("x", [1.0, float("nan")])

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            Trace("x", [])

    def test_rejects_2d(self):
        with pytest.raises(TraceError):
            Trace("x", [[1.0, 2.0]])

    def test_lower_bound_none_allows_negative(self):
        trace = Trace("net", [-1.0, 1.0], lower=None)
        assert trace[0] == -1.0


class TestTraceSet:
    def test_lengths_must_match(self):
        with pytest.raises(HorizonMismatchError):
            TraceSet(demand_ds=[1.0, 1.0], demand_dt=[0.1],
                     renewable=[0.0, 0.0], price_rt=[50.0, 50.0],
                     price_lt_hourly=[40.0, 40.0])

    def test_demand_total(self):
        traces = constant_traces(4, demand_ds=1.0, demand_dt=0.5)
        assert np.allclose(traces.demand_total, 1.5)

    def test_coarse_prices_averaging(self):
        traces = TraceSet(
            demand_ds=[1.0] * 4, demand_dt=[0.0] * 4,
            renewable=[0.0] * 4, price_rt=[50.0] * 4,
            price_lt_hourly=[10.0, 20.0, 30.0, 40.0])
        assert np.allclose(traces.coarse_prices(2), [15.0, 35.0])

    def test_coarse_prices_indivisible_rejected(self):
        traces = constant_traces(5)
        with pytest.raises(HorizonMismatchError):
            traces.coarse_prices(2)

    def test_coarse_prices_t1_identity(self):
        traces = constant_traces(4, price_lt=42.0)
        assert np.allclose(traces.coarse_prices(1), 42.0)

    def test_renewable_penetration(self):
        traces = constant_traces(10, demand_ds=0.8, demand_dt=0.2,
                                 renewable=0.5)
        assert traces.renewable_penetration == pytest.approx(0.5)

    def test_penetration_zero_demand(self):
        traces = constant_traces(3, demand_ds=0.0, demand_dt=0.0,
                                 renewable=0.5)
        assert traces.renewable_penetration == 0.0

    def test_replace_swaps_series(self):
        traces = constant_traces(4)
        doubled = traces.replace(renewable=traces.renewable * 2)
        assert np.allclose(doubled.renewable,
                           traces.renewable * 2)
        # Original untouched (immutability).
        assert np.allclose(traces.renewable, 0.2)

    def test_summary_covers_all_series(self):
        summary = constant_traces(4).summary()
        assert set(summary) == {
            "demand_ds", "demand_dt", "demand_total", "renewable",
            "price_rt", "price_lt_hourly"}

    def test_demand_std_constant_is_zero(self):
        assert constant_traces(8).demand_std == pytest.approx(0.0)
