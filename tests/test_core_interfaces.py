"""Controller protocol records."""

import pytest

from repro.core.interfaces import (
    CoarseObservation,
    Controller,
    RealTimeDecision,
)
from repro.exceptions import ConfigurationError


class TestRealTimeDecision:
    def test_valid(self):
        decision = RealTimeDecision(grt=0.5, gamma=0.7)
        assert decision.grt == 0.5

    def test_negative_grt_rejected(self):
        with pytest.raises(ConfigurationError):
            RealTimeDecision(grt=-0.1, gamma=0.5)

    @pytest.mark.parametrize("gamma", [-0.1, 1.1])
    def test_gamma_out_of_range_rejected(self, gamma):
        with pytest.raises(ConfigurationError):
            RealTimeDecision(grt=0.0, gamma=gamma)

    def test_boundary_gammas_allowed(self):
        RealTimeDecision(grt=0.0, gamma=0.0)
        RealTimeDecision(grt=0.0, gamma=1.0)


class TestObservations:
    def test_coarse_demand_total(self):
        obs = CoarseObservation(
            coarse_index=0, fine_slot=0, price_lt=40.0,
            demand_ds=1.0, demand_dt=0.5, renewable=0.0,
            battery_level=0.5, backlog=0.0, cycle_budget_left=None)
        assert obs.demand_total == pytest.approx(1.5)

    def test_profiles_default_empty(self):
        obs = CoarseObservation(
            coarse_index=0, fine_slot=0, price_lt=40.0,
            demand_ds=1.0, demand_dt=0.5, renewable=0.0,
            battery_level=0.5, backlog=0.0, cycle_budget_left=None)
        assert obs.profile_demand_ds == ()


class TestControllerBase:
    def test_is_abstract(self):
        with pytest.raises(TypeError):
            Controller()

    def test_default_name_and_end_slot(self):
        class Dummy(Controller):
            def begin_horizon(self, system):
                pass

            def plan_long_term(self, obs):
                return 0.0

            def real_time(self, obs):
                return RealTimeDecision(grt=0.0, gamma=0.0)

        dummy = Dummy()
        assert dummy.name == "Dummy"
        dummy.end_slot(None)  # default is a no-op
