"""Simulation engine physics and accounting."""

import numpy as np
import pytest

from repro.baselines.impatient import ImpatientController
from repro.config.presets import paper_controller_config, paper_system_config
from repro.core.interfaces import Controller, RealTimeDecision
from repro.core.smartdpss import SmartDPSS
from repro.exceptions import HorizonMismatchError
from repro.sim.engine import Simulator
from tests.conftest import constant_traces


class ScriptedController(Controller):
    """Returns fixed decisions; used to probe engine physics."""

    def __init__(self, gbef: float = 0.0, grt: float = 0.0,
                 gamma: float = 0.0):
        self.gbef = gbef
        self.grt = grt
        self.gamma = gamma

    def begin_horizon(self, system):
        self.system = system

    def plan_long_term(self, obs):
        return self.gbef

    def real_time(self, obs):
        return RealTimeDecision(grt=self.grt, gamma=self.gamma)


class GreedyOverbuyer(ScriptedController):
    """Requests absurd quantities to probe engine clamping."""

    def plan_long_term(self, obs):
        return 1e9

    def real_time(self, obs):
        return RealTimeDecision(grt=1e9, gamma=1.0)


def tiny_system(**overrides):
    defaults = dict(days=2)
    defaults.update(overrides)
    return paper_system_config(**defaults)


class TestConstruction:
    def test_short_traces_rejected(self):
        system = tiny_system()
        with pytest.raises(HorizonMismatchError):
            Simulator(system, ImpatientController(),
                      constant_traces(10))

    def test_mismatched_observed_rejected(self):
        system = tiny_system()
        with pytest.raises(HorizonMismatchError):
            Simulator(system, ImpatientController(),
                      constant_traces(48),
                      observed=constant_traces(49))


class TestBalanceEquation:
    def test_eq4_holds_every_slot(self):
        # s + bdc - brc = dds_served + sdt + W  (eq. 4), per slot.
        system = tiny_system()
        traces = constant_traces(48, demand_ds=1.0, demand_dt=0.4,
                                 renewable=0.1)
        result = Simulator(
            system, SmartDPSS(paper_controller_config()), traces).run()
        s = result.series
        supply = (s["gbef_rate"] + s["grt"] + s["renewable_used"])
        lhs = supply + s["discharge"] - s["charge"]
        rhs = s["served_ds"] + s["served_dt"] + s["waste"]
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_battery_energy_conservation(self):
        system = tiny_system()
        traces = constant_traces(48)
        result = Simulator(
            system, SmartDPSS(paper_controller_config()), traces).run()
        s = result.series
        level = system.initial_battery
        for i in range(48):
            level = level + system.eta_c * s["charge"][i] \
                - system.eta_d * s["discharge"][i]
            assert s["battery_level"][i] == pytest.approx(level,
                                                          abs=1e-9)


class TestClamping:
    def test_overbuyer_respects_grid_cap(self):
        system = tiny_system()
        traces = constant_traces(48)
        result = Simulator(system, GreedyOverbuyer(), traces).run()
        s = result.series
        draw = s["gbef_rate"] + s["grt"]
        assert np.all(draw <= system.p_grid + 1e-9)

    def test_zero_pgrid_blocks_everything(self):
        # A feeder of zero capacity: the block cap T·Pgrid and the
        # real-time headroom are both 0, so nothing at all is bought.
        system = tiny_system().replace(p_grid=0.0)
        traces = constant_traces(48)
        result = Simulator(system, GreedyOverbuyer(), traces).run()
        s = result.series
        assert np.all(s["gbef_rate"] + s["grt"] == 0.0)

    def test_overbuyer_respects_supply_cap(self):
        system = tiny_system()
        traces = constant_traces(48, renewable=1.0)
        result = Simulator(system, GreedyOverbuyer(), traces).run()
        s = result.series
        supply = s["gbef_rate"] + s["grt"] + s["renewable_used"]
        assert np.all(supply <= system.s_max + 1e-9)

    def test_battery_never_leaves_range(self):
        system = tiny_system()
        traces = constant_traces(48, demand_ds=1.8, renewable=0.0)
        result = Simulator(system, GreedyOverbuyer(), traces).run()
        levels = result.series["battery_level"]
        lo, hi = levels.min(), levels.max()
        assert lo >= system.b_min - 1e-9
        assert hi <= system.b_max + 1e-9


class TestServicePriority:
    def test_ds_served_before_dt(self):
        # Supply only covers dds: deferred service must be cut first.
        system = tiny_system()
        traces = constant_traces(48, demand_ds=1.0, demand_dt=0.5,
                                 renewable=0.0)
        controller = ScriptedController(gbef=24.0, grt=0.0, gamma=1.0)
        result = Simulator(system, controller, traces).run()
        assert result.availability == 1.0
        # gbef/T = 1.0 exactly covers dds; after the battery drains,
        # nothing is left for the queue.
        assert result.series["served_dt"][-1] == pytest.approx(0.0)

    def test_unserved_recorded_when_impossible(self):
        # Demand beyond Pgrid + battery: availability must degrade and
        # be reported, never silently fixed.
        system = paper_system_config(days=2).replace(p_grid=0.5,
                                                     s_max=1.0)
        traces = constant_traces(48, demand_ds=1.5, demand_dt=0.0,
                                 renewable=0.0)
        result = Simulator(system, ImpatientController(), traces).run()
        assert result.availability < 1.0
        assert result.series["unserved_ds"].sum() > 0.0


class TestCycleBudget:
    def test_budget_stops_battery(self):
        system = tiny_system(cycle_budget=3)
        traces = constant_traces(48)
        result = Simulator(
            system, SmartDPSS(paper_controller_config()), traces).run()
        assert result.battery_operations <= 3

    def test_no_budget_unconstrained(self):
        system = tiny_system()
        traces = constant_traces(48)
        result = Simulator(
            system, SmartDPSS(paper_controller_config()), traces).run()
        assert result.battery_operations >= 0


class TestAccounting:
    def test_lt_cost_booked_per_slot(self):
        system = tiny_system()
        traces = constant_traces(48, price_lt=40.0)
        controller = ScriptedController(gbef=24.0)
        result = Simulator(system, controller, traces).run()
        # Rate 1.0 at 40 $/MWh booked every slot.
        assert np.allclose(result.series["cost_lt"], 40.0)
        assert result.costs.long_term == pytest.approx(48 * 40.0)

    def test_rt_cost_uses_true_prices(self):
        system = tiny_system()
        true = constant_traces(48, price_rt=50.0, demand_ds=1.0,
                               renewable=0.0)
        # The controller *sees* half prices, but pays true ones.
        observed = true.replace(price_rt=true.price_rt * 0.5)
        controller = ScriptedController(gbef=0.0, grt=1.0)
        result = Simulator(system, controller, true,
                           observed=observed).run()
        expected = result.series["grt"] * 50.0
        assert np.allclose(result.series["cost_rt"], expected)

    def test_waste_penalized(self):
        system = tiny_system()
        traces = constant_traces(48, demand_ds=0.2, demand_dt=0.0,
                                 renewable=0.0, price_lt=40.0)
        controller = ScriptedController(gbef=24.0)  # rate 1.0 vs 0.2
        result = Simulator(system, controller, traces).run()
        assert result.waste_total > 0.0
        assert result.costs.waste == pytest.approx(
            result.waste_total * system.waste_penalty)

    def test_meta_propagated(self):
        system = tiny_system()
        traces = constant_traces(48)
        result = Simulator(system, ImpatientController(), traces).run()
        assert result.meta["traces"]["source"] == "constant"


class TestDeterminism:
    def test_same_inputs_same_outputs(self, small_system,
                                      small_traces):
        a = Simulator(small_system,
                      SmartDPSS(paper_controller_config()),
                      small_traces).run()
        b = Simulator(small_system,
                      SmartDPSS(paper_controller_config()),
                      small_traces).run()
        assert a.costs.total == b.costs.total
        assert np.array_equal(a.series["backlog"],
                              b.series["backlog"])
