"""Paper preset builders (Section VI-A parameterization)."""

import pytest

from repro.config.control import ObjectiveMode
from repro.config.presets import (
    PAPER_UPS_CYCLE_LIFE,
    PAPER_UPS_PURCHASE_COST,
    paper_controller_config,
    paper_system_config,
)
from repro.exceptions import ConfigurationError


class TestPaperSystem:
    def test_default_horizon_one_month_day_ahead(self):
        system = paper_system_config()
        assert system.horizon_slots == 744
        assert system.fine_slots_per_coarse == 24
        assert system.num_coarse_slots == 31

    def test_paper_constants(self):
        system = paper_system_config()
        assert system.p_grid == pytest.approx(2.0)
        assert system.b_charge_max == pytest.approx(0.5)
        assert system.b_discharge_max == pytest.approx(0.5)
        assert system.eta_c == pytest.approx(0.8)
        assert system.eta_d == pytest.approx(1.25)
        # Cb = Cbuy / Ccycle = 500 / 5000 = 0.1 dollars.
        assert system.battery_op_cost == pytest.approx(
            PAPER_UPS_PURCHASE_COST / PAPER_UPS_CYCLE_LIFE)
        assert system.battery_op_cost == pytest.approx(0.1)

    def test_battery_sized_in_minutes(self):
        system = paper_system_config(battery_minutes=15.0)
        assert system.b_max == pytest.approx(0.5)
        system = paper_system_config(battery_minutes=30.0)
        assert system.b_max == pytest.approx(1.0)

    def test_zero_battery(self):
        system = paper_system_config(battery_minutes=0.0)
        assert system.b_max == 0.0
        # The battery can shift no energy in either direction.
        assert system.max_charge_energy(system.b_min) == 0.0
        assert system.max_discharge_energy(system.b_max) == 0.0

    def test_t_sweep_configs(self):
        for t_slots in (3, 6, 12, 24, 48, 72, 144):
            system = paper_system_config(days=30,
                                         fine_slots_per_coarse=t_slots)
            assert system.horizon_slots == 720

    def test_indivisible_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            paper_system_config(days=31, fine_slots_per_coarse=48)

    def test_cycle_budget_passthrough(self):
        system = paper_system_config(cycle_budget=100)
        assert system.cycle_budget == 100


class TestPaperController:
    def test_defaults(self):
        config = paper_controller_config()
        assert config.v == 1.0
        assert config.epsilon == 0.5
        assert config.use_long_term_market
        assert config.use_battery

    def test_mode_string(self):
        config = paper_controller_config(objective_mode="paper")
        assert config.objective_mode is ObjectiveMode.PAPER

    def test_rtm_only(self):
        config = paper_controller_config(use_long_term_market=False)
        assert not config.use_long_term_market
