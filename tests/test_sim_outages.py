"""Grid outage injection and ride-through accounting."""

import numpy as np
import pytest

from repro.baselines.impatient import ImpatientController
from repro.config.presets import paper_controller_config, paper_system_config
from repro.core.smartdpss import SmartDPSS
from repro.sim.engine import Simulator
from repro.sim.outages import (
    OutageSchedule,
    ride_through_report,
    sample_outages,
)
from tests.conftest import constant_traces
from repro.exceptions import ConfigurationError


class TestOutageSchedule:
    def test_mask_covers_events(self):
        schedule = OutageSchedule(n_slots=10, events=((2, 3), (8, 1)))
        mask = schedule.outage_slots
        assert list(np.where(mask)[0]) == [2, 3, 4, 8]
        assert schedule.total_outage_slots == 4

    def test_events_may_overlap(self):
        schedule = OutageSchedule(n_slots=10, events=((2, 3), (3, 3)))
        assert schedule.total_outage_slots == 4

    def test_event_clipped_at_horizon(self):
        schedule = OutageSchedule(n_slots=5, events=((3, 10),))
        assert schedule.total_outage_slots == 2

    def test_invalid_start_rejected(self):
        with pytest.raises(ConfigurationError):
            OutageSchedule(n_slots=5, events=((5, 1),))

    def test_invalid_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            OutageSchedule(n_slots=5, events=((0, 0),))

    def test_grid_capacity_zero_during_outage(self):
        schedule = OutageSchedule(n_slots=4, events=((1, 2),))
        capacity = schedule.grid_capacity(2.0)
        assert list(capacity) == [2.0, 0.0, 0.0, 2.0]


class TestSampleOutages:
    def test_deterministic_given_rng(self):
        a = sample_outages(744, np.random.default_rng(3),
                           events_per_month=4)
        b = sample_outages(744, np.random.default_rng(3),
                           events_per_month=4)
        assert a.events == b.events

    def test_rate_scales_with_parameter(self):
        rng = np.random.default_rng(5)
        quiet = sample_outages(7440, rng, events_per_month=0.5)
        rng = np.random.default_rng(5)
        busy = sample_outages(7440, rng, events_per_month=20.0)
        assert len(busy.events) > len(quiet.events)

    def test_zero_rate_no_events(self):
        schedule = sample_outages(744, np.random.default_rng(1),
                                  events_per_month=0.0)
        assert schedule.events == ()

    @pytest.mark.parametrize("kwargs", [
        {"n_slots": 0}, {"events_per_month": -1.0},
        {"mean_duration_slots": 0.5},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        defaults = dict(n_slots=100, events_per_month=1.0,
                        mean_duration_slots=2.0)
        defaults.update(kwargs)
        with pytest.raises(ConfigurationError):
            sample_outages(defaults.pop("n_slots"),
                           np.random.default_rng(0), **defaults)


class TestEngineUnderOutage:
    def outage_run(self, minutes=15.0):
        system = paper_system_config(days=2,
                                     battery_minutes=minutes)
        traces = constant_traces(48, demand_ds=1.0, demand_dt=0.2,
                                 renewable=0.0)
        schedule = OutageSchedule(n_slots=48, events=((20, 2),))
        result = Simulator(
            system, SmartDPSS(paper_controller_config()), traces,
            grid_capacity=schedule.grid_capacity(system.p_grid)).run()
        return system, result, schedule

    def test_no_grid_draw_during_outage(self):
        _, result, schedule = self.outage_run()
        mask = schedule.outage_slots
        draw = (result.series["gbef_rate"]
                + result.series["grt"])[mask]
        assert np.all(draw == 0.0)

    def test_battery_rides_through(self):
        _, result, schedule = self.outage_run()
        mask = schedule.outage_slots
        assert result.series["discharge"][mask].sum() > 0.0

    def test_unserved_recorded_honestly(self):
        # 2 h of 1 MWh demand vs a 0.5 MWh battery: most is unserved.
        _, result, schedule = self.outage_run()
        report = ride_through_report(result, schedule)
        assert report["ds_unserved_mwh"] > 1.0
        assert report["outage_availability"] < 0.5

    def test_bigger_battery_more_ride_through(self):
        _, small, schedule = self.outage_run(minutes=15.0)
        _, big, _ = self.outage_run(minutes=120.0)
        small_report = ride_through_report(small, schedule)
        big_report = ride_through_report(big, schedule)
        assert (big_report["outage_availability"]
                > small_report["outage_availability"])

    def test_undelivered_contract_not_billed(self):
        _, result, schedule = self.outage_run()
        mask = schedule.outage_slots
        assert np.all(result.series["cost_lt"][mask] == 0.0)

    def test_capacity_length_validated(self):
        system = paper_system_config(days=2)
        traces = constant_traces(48)
        from repro.exceptions import HorizonMismatchError
        with pytest.raises(HorizonMismatchError):
            Simulator(system, ImpatientController(), traces,
                      grid_capacity=np.ones(10))

    def test_negative_capacity_rejected(self):
        system = paper_system_config(days=2)
        traces = constant_traces(48)
        nan_slot = np.ones(48)
        nan_slot[5] = np.nan
        for capacity in (-np.ones(48), nan_slot):
            with pytest.raises(ConfigurationError):
                Simulator(system, ImpatientController(), traces,
                          grid_capacity=capacity)
