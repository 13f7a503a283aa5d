"""Hour-of-day time-series utilities."""

import numpy as np
import pytest

from repro.analysis.timeseries import (
    battery_cycle_profile,
    by_hour,
    overnight_share,
    purchase_profile,
)
from repro.config.presets import paper_controller_config, paper_system_config
from repro.core.smartdpss import SmartDPSS
from repro.sim.engine import Simulator
from repro.traces.library import make_paper_traces
from repro.exceptions import ConfigurationError


class TestByHour:
    def test_mean_profile(self):
        values = np.arange(48, dtype=float)
        profile = by_hour(values)
        assert profile.size == 24
        assert profile[5] == pytest.approx((5 + 29) / 2)

    def test_sum_reducer(self):
        values = np.ones(48)
        assert np.allclose(by_hour(values, "sum"), 2.0)

    def test_max_reducer(self):
        values = np.arange(48, dtype=float)
        assert by_hour(values, "max")[0] == 24.0

    def test_unknown_reducer_rejected(self):
        with pytest.raises(ConfigurationError):
            by_hour(np.ones(24), "median")


class TestOvernightShare:
    def test_all_overnight(self):
        values = np.zeros(24)
        values[2] = 5.0
        assert overnight_share(values) == 1.0

    def test_none_overnight(self):
        values = np.zeros(24)
        values[12] = 5.0
        assert overnight_share(values) == 0.0

    def test_empty_series(self):
        assert overnight_share(np.zeros(24)) == 0.0


class TestResultProfiles:
    @pytest.fixture(scope="class")
    def result(self):
        system = paper_system_config(days=4)
        traces = make_paper_traces(system, seed=60)
        return Simulator(
            system, SmartDPSS(paper_controller_config()), traces).run()

    def test_purchase_profile_keys(self, result):
        profile = purchase_profile(result)
        assert set(profile) == {"long_term", "real_time"}
        assert profile["long_term"].size == 24

    def test_battery_profile_keys(self, result):
        profile = battery_cycle_profile(result)
        assert set(profile) == {"charge", "discharge", "level"}
