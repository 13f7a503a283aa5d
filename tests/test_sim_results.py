"""SimulationResult summaries."""

import pytest

from repro.baselines.impatient import ImpatientController
from repro.config.presets import paper_controller_config
from repro.core.smartdpss import SmartDPSS
from repro.sim.engine import run_simulation


@pytest.fixture
def result(small_system, small_traces):
    return run_simulation(small_system,
                          SmartDPSS(paper_controller_config()),
                          small_traces)


class TestCostProperties:
    def test_total_matches_series_sum(self, result):
        assert result.total_cost == pytest.approx(
            float(result.series["cost_total"].sum()))

    def test_time_average(self, result):
        assert result.time_average_cost == pytest.approx(
            result.total_cost / result.n_slots)

    def test_breakdown_sums_to_total(self, result):
        breakdown = result.costs
        assert breakdown.total == pytest.approx(result.total_cost)

    def test_n_slots(self, result, small_system):
        assert result.n_slots == small_system.horizon_slots


class TestServiceProperties:
    def test_delay_hours_conversion(self, result, small_system):
        assert result.average_delay_hours() == pytest.approx(
            result.average_delay_slots * small_system.slot_hours)

    def test_availability_one_on_sane_config(self, result):
        assert result.availability == 1.0
        assert result.unserved_ds_total == 0.0

    def test_peak_backlog_bounds_final(self, result):
        assert result.final_backlog <= result.peak_backlog + 1e-12

    def test_renewable_utilization_in_unit_interval(self, result):
        assert 0.0 <= result.renewable_utilization <= 1.0


class TestSummary:
    def test_summary_keys(self, result):
        summary = result.summary()
        expected = {
            "time_avg_cost", "total_cost", "cost_lt", "cost_rt",
            "cost_battery", "cost_waste", "avg_delay_slots",
            "worst_delay_slots", "availability", "waste_mwh",
            "battery_ops", "renewable_utilization", "peak_backlog",
            "final_backlog"}
        assert set(summary) == expected

    def test_summary_consistency(self, result):
        summary = result.summary()
        assert summary["time_avg_cost"] == pytest.approx(
            result.time_average_cost)
        assert summary["battery_ops"] == result.battery_operations

    def test_controller_name_propagated(self, small_system,
                                        small_traces):
        result = run_simulation(small_system, ImpatientController(),
                                small_traces)
        assert result.controller_name == "Impatient"
