"""SimulationResult summaries, and the test oracle's summary of one."""

import pytest

from oracles import results
from repro.baselines.impatient import ImpatientController
from repro.config.presets import paper_controller_config
from repro.core.smartdpss import SmartDPSS
from repro.sim.engine import Simulator


@pytest.fixture
def result(small_system, small_traces):
    return Simulator(small_system,
                     SmartDPSS(paper_controller_config()),
                     small_traces).run()


class TestCostProperties:
    def test_total_matches_series_sum(self, result):
        assert result.costs.total == pytest.approx(
            float(result.series["cost_total"].sum()))

    def test_time_average(self, result):
        assert result.time_average_cost == pytest.approx(
            result.costs.total / result.n_slots)

    def test_breakdown_sums_to_total(self, result):
        breakdown = result.costs
        assert breakdown.total == pytest.approx(
            breakdown.long_term + breakdown.real_time + breakdown.battery
            + breakdown.waste)

    def test_n_slots(self, result, small_system):
        assert result.n_slots == small_system.horizon_slots


class TestServiceProperties:
    def test_delay_hours_conversion(self, result, small_system):
        assert result.average_delay_hours() == pytest.approx(
            result.average_delay_slots * small_system.slot_hours)

    def test_availability_one_on_sane_config(self, result):
        assert result.availability == 1.0
        assert results.unserved_ds_total(result) == 0.0

    def test_peak_backlog_bounds_final(self, result):
        assert results.final_backlog(result) \
            <= results.peak_backlog(result) + 1e-12

    def test_renewable_utilization_in_unit_interval(self, result):
        assert 0.0 <= result.renewable_utilization <= 1.0


class TestSummary:
    def test_summary_keys(self, result):
        summary = results.summary(result)
        expected = {
            "time_avg_cost", "total_cost", "cost_lt", "cost_rt",
            "cost_battery", "cost_waste", "avg_delay_slots",
            "worst_delay_slots", "availability", "waste_mwh",
            "battery_ops", "renewable_utilization", "peak_backlog",
            "final_backlog"}
        assert set(summary) == expected

    def test_summary_consistency(self, result):
        summary = results.summary(result)
        assert summary["time_avg_cost"] == pytest.approx(
            result.time_average_cost)
        assert summary["battery_ops"] == result.battery_operations

    def test_controller_name_propagated(self, small_system,
                                        small_traces):
        result = Simulator(small_system, ImpatientController(),
                           small_traces).run()
        assert result.controller_name == "Impatient"
