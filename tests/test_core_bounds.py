"""Theorem constants (H1, H2, H3, Vmax, Qmax, Ymax, Umax, λmax)."""

import math

import pytest

from repro.config.system import SystemConfig
from repro.core.bounds import BoundVariant, compute_bounds
from repro.exceptions import ConfigurationError


def big_battery_system() -> SystemConfig:
    """A system satisfying the Theorem 2 precondition ``Vmax > 0``."""
    return SystemConfig(b_max=20.0, b_min=0.5, b_charge_max=0.5,
                        b_discharge_max=0.5, eta_c=0.8, eta_d=1.25,
                        d_dt_max=1.0, s_dt_max=2.0)


class TestHConstants:
    def test_h1_formula(self):
        system = SystemConfig(s_dt_max=2.0, d_dt_max=1.0,
                              b_charge_max=0.5, b_discharge_max=0.5,
                              eta_c=0.8, eta_d=1.25)
        bounds = compute_bounds(system, v=1.0, epsilon=0.5,
                                price_cap=20.0)
        expected = (2.0 ** 2 + 0.5 * (1.0 ** 2 + (0.5 * 0.8) ** 2
                                      + (0.5 * 1.25) ** 2 + 0.5 ** 2))
        assert bounds.h1 == pytest.approx(expected)

    def test_h2_adds_window_terms(self):
        system = SystemConfig(fine_slots_per_coarse=24)
        bounds = compute_bounds(system, 1.0, 0.5, 20.0)
        t = 24
        charge_sq = (system.b_charge_max * system.eta_c) ** 2
        expected = (bounds.h1 + t * (t - 1) * charge_sq
                    + t * (t - 1) * 0.5 ** 2)
        assert bounds.h2 == pytest.approx(expected)

    def test_h3_equals_h2_without_error(self):
        bounds = compute_bounds(SystemConfig(), 1.0, 0.5, 20.0,
                                theta_max=0.0)
        assert bounds.h3 == pytest.approx(bounds.h2)

    def test_h3_grows_with_theta(self):
        base = compute_bounds(SystemConfig(), 1.0, 0.5, 20.0,
                              theta_max=0.0)
        noisy = compute_bounds(SystemConfig(), 1.0, 0.5, 20.0,
                               theta_max=1.0)
        assert noisy.h3 > base.h3

    def test_t1_system_has_no_window_terms(self):
        system = SystemConfig(fine_slots_per_coarse=1,
                              num_coarse_slots=24)
        bounds = compute_bounds(system, 1.0, 0.5, 20.0)
        assert bounds.h2 == pytest.approx(bounds.h1)


class TestVmax:
    def test_paper_parameters_violate_precondition(self):
        # The paper's own 15-minute battery makes Vmax negative:
        # Theorem 2's premise cannot hold for its evaluation setup.
        from repro.config.presets import paper_system_config
        bounds = compute_bounds(paper_system_config(), 1.0, 0.5, 20.0)
        assert bounds.v_max < 0

    def test_big_battery_satisfies_precondition(self):
        bounds = compute_bounds(big_battery_system(), 1.0, 0.5, 20.0)
        assert bounds.v_max > 0

    def test_vmax_formula(self):
        system = big_battery_system()
        bounds = compute_bounds(system, 1.0, 0.5, 20.0)
        expected = 24 * (20.0 - 0.5 - 0.5 * 1.25 - 0.5 * 0.8
                         - 1.0 - 0.5) / 20.0
        assert bounds.v_max == pytest.approx(expected)


class TestQueueBounds:
    def test_paper_variant_uses_t_scaled_threshold(self):
        system = SystemConfig(fine_slots_per_coarse=24)
        bounds = compute_bounds(system, 2.0, 0.5, 20.0,
                                variant=BoundVariant.PAPER)
        assert bounds.q_max == pytest.approx(2.0 * 20.0 / 24 + 1.0)
        assert bounds.y_max == pytest.approx(2.0 * 20.0 / 24 + 0.5)

    def test_implementation_variant(self):
        system = SystemConfig(fine_slots_per_coarse=24)
        bounds = compute_bounds(system, 2.0, 0.5, 20.0)
        assert bounds.q_max == pytest.approx(2.0 * 20.0 + 24 * 1.0)
        assert bounds.y_max == pytest.approx(2.0 * 20.0 + 24 * 0.5)

    def test_lambda_max_matches_lemma2(self):
        system = SystemConfig(fine_slots_per_coarse=24)
        bounds = compute_bounds(system, 1.0, 0.5, 20.0)
        expected = math.ceil((2 * 20.0 + 24 * 1.0 + 24 * 0.5) / 0.5)
        assert bounds.lambda_max == expected

    def test_umax_is_sum_structure(self):
        bounds = compute_bounds(SystemConfig(), 1.0, 0.5, 20.0)
        assert bounds.u_max == pytest.approx(
            bounds.q_max + bounds.y_max - 1.0 * 20.0)

    def test_cost_gap_is_h_over_v(self):
        for v in (0.5, 1.0, 4.0):
            bounds = compute_bounds(SystemConfig(), v, 0.5, 20.0)
            assert bounds.cost_gap == pytest.approx(bounds.h2 / v)

    def test_cost_gap_uses_h3_with_error(self):
        bounds = compute_bounds(SystemConfig(), 1.0, 0.5, 20.0,
                                theta_max=2.0)
        assert bounds.cost_gap == pytest.approx(bounds.h3)

    def test_delay_decreases_with_epsilon(self):
        loose = compute_bounds(SystemConfig(), 1.0, 0.25, 20.0)
        tight = compute_bounds(SystemConfig(), 1.0, 2.0, 20.0)
        assert tight.lambda_max < loose.lambda_max


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"v": 0.0}, {"epsilon": 0.0}, {"price_cap": 0.0},
        {"theta_max": -1.0},
    ])
    def test_invalid_rejected(self, kwargs):
        defaults = dict(v=1.0, epsilon=0.5, price_cap=20.0)
        defaults.update(kwargs)
        with pytest.raises(ConfigurationError):
            compute_bounds(SystemConfig(), **defaults)


class TestArrayCapable:
    """Array inputs evaluate elementwise-identically to scalar calls."""

    def _systems(self):
        import numpy as np

        base = big_battery_system()
        small = SystemConfig(b_max=1.0, b_min=0.1, b_charge_max=0.4,
                             b_discharge_max=0.4, eta_c=0.9, eta_d=1.1,
                             d_dt_max=0.8, s_dt_max=1.5)
        return [base, small, base], np

    def test_matches_per_scalar_calls(self):
        from repro.core.bounds import SystemArrays

        systems, np = self._systems()
        v = np.array([1.0, 0.25, 3.0])
        epsilon = np.array([0.5, 1.0, 0.2])
        cap = np.array([20.0, 5.0, 12.5])
        theta = np.array([0.0, 0.3, 1.2])
        for variant in BoundVariant:
            batch = compute_bounds(SystemArrays.stack(systems), v,
                                   epsilon, cap, theta, variant=variant)
            for index, system in enumerate(systems):
                scalar = compute_bounds(system, float(v[index]),
                                        float(epsilon[index]),
                                        float(cap[index]),
                                        float(theta[index]),
                                        variant=variant)
                for name in ("h1", "h2", "h3", "v_max", "q_max",
                             "y_max", "u_max", "cost_gap"):
                    assert getattr(batch, name)[index] \
                        == getattr(scalar, name), (variant, name, index)
                assert int(batch.lambda_max[index]) == scalar.lambda_max

    def test_theory_applies_requires_every_scenario(self):
        """The Theorem 2 precondition ``Vmax > 0`` holds per scenario."""
        from repro.core.bounds import SystemArrays

        systems, np = self._systems()
        mixed = compute_bounds(SystemArrays.stack(systems), np.ones(3),
                               np.full(3, 0.5), np.full(3, 1.0))
        # The small battery violates it; the big ones satisfy it.
        assert (mixed.v_max > 0).tolist() == [True, False, True]
        big = compute_bounds(
            SystemArrays.stack([systems[0], systems[2]]), np.ones(2),
            np.full(2, 0.5), np.full(2, 1.0))
        assert bool(np.all(big.v_max > 0))

    def test_array_validation_rejects_any_bad_entry(self):
        from repro.core.bounds import SystemArrays
        import numpy as np

        systems, _ = self._systems()
        bundle = SystemArrays.stack(systems)
        good = np.ones(3)
        with pytest.raises(ConfigurationError):
            compute_bounds(bundle, np.array([1.0, -1.0, 1.0]), good, good)
        with pytest.raises(ConfigurationError):
            compute_bounds(bundle, good, np.array([0.5, 0.0, 0.5]), good)
        with pytest.raises(ConfigurationError):
            compute_bounds(bundle, good, good, np.array([1.0, 1.0, 0.0]))
