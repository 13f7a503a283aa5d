"""Cost breakdown and service metrics."""

from types import SimpleNamespace

import numpy as np
import pytest

from oracles.results import battery_throughput
from repro.sim.metrics import (
    CostBreakdown,
    availability,
    renewable_utilization,
    summarize_costs,
)
from repro.exceptions import ConfigurationError


def series(**overrides):
    base = {name: np.zeros(4) for name in (
        "cost_lt", "cost_rt", "cost_battery", "cost_waste",
        "served_ds", "unserved_ds", "renewable_used",
        "renewable_curtailed", "waste", "charge", "discharge")}
    for key, values in overrides.items():
        base[key] = np.asarray(values, dtype=float)
    return base


class TestCostBreakdown:
    def test_total(self):
        breakdown = CostBreakdown(long_term=10.0, real_time=5.0,
                                  battery=1.0, waste=0.5)
        assert breakdown.total == pytest.approx(16.5)

    def test_time_average(self):
        breakdown = CostBreakdown(10.0, 5.0, 1.0, 0.0)
        assert breakdown.time_average(4) == pytest.approx(4.0)

    def test_time_average_zero_slots_rejected(self):
        with pytest.raises(ConfigurationError):
            CostBreakdown(1.0, 0.0, 0.0, 0.0).time_average(0)

    def test_as_dict(self):
        d = CostBreakdown(1.0, 2.0, 3.0, 4.0).as_dict()
        assert d["total"] == pytest.approx(10.0)

    def test_summarize_from_series(self):
        breakdown = summarize_costs(series(
            cost_lt=[1, 1, 1, 1], cost_rt=[0, 2, 0, 0],
            cost_battery=[0.1, 0, 0, 0], cost_waste=[0, 0, 0.5, 0]))
        assert breakdown.long_term == pytest.approx(4.0)
        assert breakdown.real_time == pytest.approx(2.0)
        assert breakdown.battery == pytest.approx(0.1)
        assert breakdown.waste == pytest.approx(0.5)


class TestAvailability:
    def test_perfect(self):
        assert availability(series(served_ds=[1, 1, 1, 1])) == 1.0

    def test_partial(self):
        value = availability(series(served_ds=[1, 1, 1, 0],
                                    unserved_ds=[0, 0, 0, 1]))
        assert value == pytest.approx(0.75)

    def test_no_demand_is_available(self):
        assert availability(series()) == 1.0


class TestRenewableUtilization:
    def test_full_use(self):
        value = renewable_utilization(series(
            renewable_used=[1, 1, 0, 0]))
        assert value == 1.0

    def test_curtailment_counts_as_loss(self):
        value = renewable_utilization(series(
            renewable_used=[1, 0, 0, 0],
            renewable_curtailed=[1, 0, 0, 0]))
        assert value == pytest.approx(0.5)

    def test_waste_attributed_to_renewables(self):
        value = renewable_utilization(series(
            renewable_used=[2, 0, 0, 0], waste=[1, 0, 0, 0]))
        assert value == pytest.approx(0.5)

    def test_no_production_is_full(self):
        assert renewable_utilization(series()) == 1.0

    def test_never_negative(self):
        value = renewable_utilization(series(
            renewable_used=[0.1, 0, 0, 0], waste=[5, 0, 0, 0]))
        assert value >= 0.0


class TestBatteryThroughput:
    """The test oracle's throughput, which the batch fold is checked
    against (``tests/test_fleet_metrics.py``)."""

    def test_sums_both_directions(self):
        result = SimpleNamespace(series=series(charge=[0.5, 0, 0, 0],
                                               discharge=[0, 0.3, 0, 0]))
        value = battery_throughput(result)
        assert value == pytest.approx(0.8)
