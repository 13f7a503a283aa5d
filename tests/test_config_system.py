"""SystemConfig validation and derived quantities."""

import pytest

from repro.config.system import SystemConfig
from repro.exceptions import ConfigurationError


class TestValidation:
    def test_defaults_valid(self):
        SystemConfig()

    @pytest.mark.parametrize("field,value", [
        ("fine_slots_per_coarse", 0),
        ("num_coarse_slots", 0),
        ("slot_hours", 0.0),
        ("p_max", 0.0),
        ("p_grid", -1.0),
        ("s_max", -0.1),
        ("b_max", -1.0),
        ("b_charge_max", -0.5),
        ("b_discharge_max", -0.5),
        ("eta_c", 0.0),
        ("eta_c", 1.5),
        ("eta_d", 0.9),
        ("battery_op_cost", -0.1),
        ("cycle_budget", -1),
        ("d_dt_max", -1.0),
        ("s_dt_max", -1.0),
        ("waste_penalty", -1.0),
    ])
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            SystemConfig(**{field: value})

    def test_bmin_above_bmax_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(b_max=0.5, b_min=0.6)

    def test_binit_outside_range_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(b_max=0.5, b_min=0.1, b_init=0.05)

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(p_max=float("inf"))


class TestDerived:
    def test_horizon_slots(self):
        config = SystemConfig(fine_slots_per_coarse=24,
                              num_coarse_slots=31)
        assert config.horizon_slots == 744

    def test_initial_battery_defaults_full(self):
        config = SystemConfig(b_max=0.5, b_min=0.1)
        assert config.initial_battery == 0.5

    def test_initial_battery_override(self):
        config = SystemConfig(b_max=0.5, b_min=0.1, b_init=0.3)
        assert config.initial_battery == 0.3

    def test_has_battery_true(self):
        config = SystemConfig(b_max=0.5, b_min=0.0)
        assert config.max_charge_energy(config.b_min) > 0
        assert config.max_discharge_energy(config.b_max) > 0

    def test_has_battery_false_when_zero_span(self):
        config = SystemConfig(b_max=0.0, b_min=0.0)
        assert config.max_charge_energy(config.b_min) == 0.0
        assert config.max_discharge_energy(config.b_max) == 0.0


class TestBatteryEnergyCaps:
    def test_discharge_respects_rate_cap(self):
        config = SystemConfig(b_max=10.0, b_min=0.0,
                              b_discharge_max=0.5, eta_d=1.25)
        assert config.max_discharge_energy(10.0) == pytest.approx(0.5)

    def test_discharge_respects_reserve(self):
        config = SystemConfig(b_max=10.0, b_min=0.4,
                              b_discharge_max=5.0, eta_d=1.25)
        # Only (0.5 - 0.4)/1.25 = 0.08 can be served at level 0.5.
        assert config.max_discharge_energy(0.5) == pytest.approx(0.08)

    def test_discharge_zero_at_reserve(self):
        config = SystemConfig(b_max=1.0, b_min=0.5)
        assert config.max_discharge_energy(0.5) == 0.0

    def test_charge_respects_rate_cap(self):
        config = SystemConfig(b_max=10.0, b_min=0.0,
                              b_charge_max=0.5, eta_c=0.8)
        assert config.max_charge_energy(0.0) == pytest.approx(0.5)

    def test_charge_respects_capacity(self):
        config = SystemConfig(b_max=1.0, b_min=0.0,
                              b_charge_max=5.0, eta_c=0.8)
        # (1.0 - 0.6)/0.8 = 0.5 absorbable at level 0.6.
        assert config.max_charge_energy(0.6) == pytest.approx(0.5)

    def test_charge_zero_at_full(self):
        config = SystemConfig(b_max=1.0, b_min=0.0)
        assert config.max_charge_energy(1.0) == 0.0


class TestBuilders:
    def test_replace_revalidates(self):
        config = SystemConfig()
        with pytest.raises(ConfigurationError):
            config.replace(eta_c=2.0)

    def test_replace_changes_field(self):
        config = SystemConfig().replace(p_grid=3.0)
        assert config.p_grid == 3.0

    def test_with_battery_minutes(self):
        config = SystemConfig().with_battery_minutes(
            30.0, peak_demand_mw=2.0)
        assert config.b_max == pytest.approx(1.0)
        assert config.b_min == pytest.approx(2.0 / 60.0)

    def test_with_zero_battery_minutes(self):
        config = SystemConfig().with_battery_minutes(
            0.0, peak_demand_mw=2.0)
        assert config.b_max == 0.0
        assert config.b_min == 0.0

    def test_is_coarse_boundary(self):
        config = SystemConfig(fine_slots_per_coarse=12)
        assert config.is_coarse_boundary(0)
        assert config.is_coarse_boundary(12)
        assert not config.is_coarse_boundary(13)
