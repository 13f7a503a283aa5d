"""SmartDPSSConfig and ObjectiveMode validation."""

import pytest

from repro.config.control import ObjectiveMode, SmartDPSSConfig
from repro.exceptions import ConfigurationError


class TestObjectiveMode:
    def test_values(self):
        assert ObjectiveMode("paper") is ObjectiveMode.PAPER
        assert ObjectiveMode("derived") is ObjectiveMode.DERIVED

    def test_string_coercion_in_config(self):
        config = SmartDPSSConfig(objective_mode="paper")
        assert config.objective_mode is ObjectiveMode.PAPER

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            SmartDPSSConfig(objective_mode="optimistic")


class TestValidation:
    def test_defaults_valid(self):
        config = SmartDPSSConfig()
        assert config.v == 1.0
        assert config.epsilon == 0.5
        assert config.objective_mode is ObjectiveMode.DERIVED

    @pytest.mark.parametrize("v", [0.0, -1.0, float("nan"),
                                   float("inf")])
    def test_invalid_v_rejected(self, v):
        with pytest.raises(ConfigurationError):
            SmartDPSSConfig(v=v)

    @pytest.mark.parametrize("epsilon", [0.0, -0.5, float("nan")])
    def test_invalid_epsilon_rejected(self, epsilon):
        with pytest.raises(ConfigurationError):
            SmartDPSSConfig(epsilon=epsilon)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("inf")])
    def test_invalid_price_scale_rejected(self, scale):
        with pytest.raises(ConfigurationError):
            SmartDPSSConfig(price_scale=scale)

    def test_invalid_shift_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            SmartDPSSConfig(battery_shift_mode="aggressive")

    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigurationError):
            SmartDPSSConfig(battery_price_margin=-1.0)

    def test_replace_revalidates(self):
        config = SmartDPSSConfig()
        with pytest.raises(ConfigurationError):
            config.replace(v=-1.0)

    def test_replace_changes_field(self):
        config = SmartDPSSConfig().replace(v=2.5)
        assert config.v == 2.5

    def test_paper_shift_mode_accepted(self):
        config = SmartDPSSConfig(battery_shift_mode="paper")
        assert config.battery_shift_mode == "paper"
