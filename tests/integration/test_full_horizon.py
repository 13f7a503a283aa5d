"""Full 31-day integration runs: the paper's headline orderings."""

import numpy as np
import pytest

from repro.baselines.impatient import ImpatientController
from repro.baselines.offline import OfflineOptimal
from repro.config.presets import paper_controller_config, paper_system_config
from repro.core.smartdpss import SmartDPSS
from repro.sim.engine import Simulator
from repro.traces.library import make_paper_traces


@pytest.fixture(scope="module")
def month():
    system = paper_system_config()
    traces = make_paper_traces(system, seed=101)
    smart = Simulator(system,
                      SmartDPSS(paper_controller_config()),
                      traces).run()
    impatient = Simulator(system, ImpatientController(),
                          traces).run()
    offline = Simulator(system, OfflineOptimal(traces), traces).run()
    return system, traces, smart, impatient, offline


class TestCostOrdering:
    def test_offline_is_cheapest(self, month):
        _, _, smart, impatient, offline = month
        assert offline.time_average_cost < smart.time_average_cost
        assert offline.time_average_cost < impatient.time_average_cost

    def test_smartdpss_beats_impatient(self, month):
        _, _, smart, impatient, _ = month
        assert smart.time_average_cost < impatient.time_average_cost

    def test_savings_are_material(self, month):
        _, _, smart, impatient, _ = month
        reduction = (impatient.time_average_cost
                     - smart.time_average_cost) \
            / impatient.time_average_cost
        assert reduction > 0.02  # at least a few percent


class TestServiceGuarantees:
    def test_availability_everyone(self, month):
        _, _, smart, impatient, offline = month
        for result in (smart, impatient, offline):
            assert result.availability == 1.0

    def test_impatient_has_lowest_delay(self, month):
        _, _, smart, impatient, _ = month
        assert impatient.average_delay_slots \
            <= smart.average_delay_slots

    def test_all_deferred_energy_conserved(self, month):
        _, traces, smart, _, _ = month
        arrived = float(traces.demand_dt.sum())
        served = float(smart.series["served_dt"].sum())
        assert arrived == pytest.approx(served + smart.final_backlog,
                                        abs=1e-6)

    def test_battery_in_range_all_month(self, month):
        system, _, smart, _, _ = month
        levels = smart.series["battery_level"]
        lo, hi = levels.min(), levels.max()
        assert lo >= system.b_min - 1e-9
        assert hi <= system.b_max + 1e-9


class TestVTradeoffCoarse:
    def test_extreme_v_ordering(self):
        system = paper_system_config()
        traces = make_paper_traces(system, seed=77)
        low = Simulator(system,
                        SmartDPSS(paper_controller_config(v=0.05)),
                        traces).run()
        high = Simulator(system,
                         SmartDPSS(paper_controller_config(v=5.0)),
                         traces).run()
        assert high.time_average_cost < low.time_average_cost
        assert high.average_delay_slots > low.average_delay_slots


class TestMarketUsage:
    def test_two_markets_split_purchases(self, month):
        _, _, smart, _, _ = month
        assert smart.lt_energy > 0.0
        assert smart.rt_energy > 0.0
        # The long-term market carries the bulk of the energy.
        assert smart.lt_energy > smart.rt_energy

    def test_offline_buys_mostly_long_term(self, month):
        _, _, _, _, offline = month
        assert offline.lt_energy > offline.rt_energy


class TestDeterminism:
    def test_month_run_is_reproducible(self, month):
        system, traces, smart, _, _ = month
        again = Simulator(system,
                          SmartDPSS(paper_controller_config()),
                          traces).run()
        assert again.total_cost == smart.total_cost
        assert np.array_equal(again.series["battery_level"],
                              smart.series["battery_level"])
