"""15-minute fine slots (paper Section II: slots are "15 or 60 min").

The whole library is unit-consistent in MWh-per-slot, so switching to
quarter-hour slots only changes the configuration: 96 fine slots per
day-ahead coarse slot, quarter-scale per-slot caps, and trace models
told the slot length.  This test runs the full pipeline at that
resolution and checks the invariants and orderings survive.
"""

import numpy as np
import pytest

from repro.baselines.impatient import ImpatientController
from repro.config.presets import paper_controller_config
from repro.config.system import SystemConfig
from repro.core.smartdpss import SmartDPSS
from repro.sim.engine import Simulator
from repro.traces.base import TraceSet
from repro.traces.demand import DemandModel, GoogleClusterDemandGenerator
from repro.traces.prices import NyisoLikePriceGenerator, PriceModel
from repro.traces.scaling import clip_demand_peaks
from repro.traces.solar import MidcLikeSolarGenerator, SolarModel
from repro.rng import RngFactory


SLOT_HOURS = 0.25
DAYS = 4


@pytest.fixture(scope="module")
def quarter_hour_setting():
    system = SystemConfig(
        fine_slots_per_coarse=96,            # one day-ahead market day
        num_coarse_slots=DAYS,
        slot_hours=SLOT_HOURS,
        p_max=200.0,
        p_grid=2.0 * SLOT_HOURS,             # 2 MW feeder
        s_max=8.0 * SLOT_HOURS,
        b_max=0.5, b_min=0.0333,
        b_charge_max=0.5 * SLOT_HOURS,       # 0.5 MW rate caps
        b_discharge_max=0.5 * SLOT_HOURS,
        eta_c=0.8, eta_d=1.25,
        battery_op_cost=0.1,
        d_dt_max=1.0 * SLOT_HOURS,
        s_dt_max=2.0 * SLOT_HOURS,
    )
    n_slots = system.horizon_slots
    factory = RngFactory(2025)
    demand_model = DemandModel(d_dt_max=system.d_dt_max,
                               slot_hours=SLOT_HOURS,
                               batch_jobs_per_hour=4.0)
    ds, dt = GoogleClusterDemandGenerator(demand_model).generate(
        n_slots, factory.stream("demand"))
    solar = MidcLikeSolarGenerator(
        SolarModel(slot_hours=SLOT_HOURS)).generate(
        n_slots, factory.stream("solar"))
    prt, plt = NyisoLikePriceGenerator(
        PriceModel(slot_hours=SLOT_HOURS)).generate(
        n_slots, factory.stream("prices"))
    traces = clip_demand_peaks(
        TraceSet(demand_ds=ds, demand_dt=dt, renewable=solar,
                 price_rt=prt, price_lt_hourly=plt),
        system.p_grid)
    return system, traces


class TestQuarterHourResolution:
    def test_horizon_shape(self, quarter_hour_setting):
        system, traces = quarter_hour_setting
        assert system.horizon_slots == DAYS * 96
        assert system.horizon_slots * system.slot_hours \
            == pytest.approx(DAYS * 24)
        assert traces.n_slots == system.horizon_slots

    def test_smartdpss_runs_with_full_availability(
            self, quarter_hour_setting):
        system, traces = quarter_hour_setting
        # Epsilon must scale with the per-slot energy unit.
        config = paper_controller_config(
            epsilon=0.5 * SLOT_HOURS)
        result = Simulator(system, SmartDPSS(config), traces).run()
        assert result.availability == 1.0
        levels = result.series["battery_level"]
        lo, hi = levels.min(), levels.max()
        assert lo >= system.b_min - 1e-9
        assert hi <= system.b_max + 1e-9

    def test_balance_holds_at_fine_resolution(
            self, quarter_hour_setting):
        system, traces = quarter_hour_setting
        config = paper_controller_config(epsilon=0.5 * SLOT_HOURS)
        result = Simulator(system, SmartDPSS(config), traces).run()
        s = result.series
        supply = s["gbef_rate"] + s["grt"] + s["renewable_used"]
        lhs = supply + s["discharge"] - s["charge"]
        rhs = s["served_ds"] + s["served_dt"] + s["waste"]
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_cost_ordering_survives(self, quarter_hour_setting):
        system, traces = quarter_hour_setting
        config = paper_controller_config(epsilon=0.5 * SLOT_HOURS,
                                         v=2.0)
        smart = Simulator(system, SmartDPSS(config), traces).run()
        impatient = Simulator(system, ImpatientController(),
                              traces).run()
        assert smart.time_average_cost < impatient.time_average_cost

    def test_delay_hours_conversion(self, quarter_hour_setting):
        system, traces = quarter_hour_setting
        config = paper_controller_config(epsilon=0.5 * SLOT_HOURS)
        result = Simulator(system, SmartDPSS(config), traces).run()
        assert result.average_delay_hours() == pytest.approx(
            result.average_delay_slots * SLOT_HOURS)
