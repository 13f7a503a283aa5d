"""Unit-conversion helpers."""

import pytest

from repro import units
from repro.exceptions import ConfigurationError


class TestBatteryConversions:
    def test_minutes_to_mwh_paper_values(self):
        # 15 minutes of a 2 MW peak is 0.5 MWh — the paper's battery.
        assert units.battery_minutes_to_mwh(15.0, 2.0) == pytest.approx(0.5)

    def test_minutes_to_mwh_zero(self):
        assert units.battery_minutes_to_mwh(0.0, 2.0) == 0.0

    def test_negative_minutes_rejected(self):
        with pytest.raises(ConfigurationError):
            units.battery_minutes_to_mwh(-1.0, 2.0)

    def test_negative_peak_rejected(self):
        with pytest.raises(ConfigurationError):
            units.battery_minutes_to_mwh(10.0, -2.0)
