"""Experiment harness smoke tests (short horizons for speed)."""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.ablations import run_ablations
from repro.experiments.common import build_scenario
from repro.experiments.fig5_traces import run_fig5
from repro.experiments.fig6_t_sweep import run_fig6_t
from repro.experiments.fig6_v_sweep import run_fig6_v
from repro.experiments.fig7_factors import run_fig7
from repro.experiments.fig8_penetration import run_fig8
from repro.experiments.fig9_robustness import run_fig9
from repro.experiments.fig10_scaling import run_fig10


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(EXPERIMENTS) == {
            "fig5", "fig6_v", "fig6_t", "fig7", "fig8", "fig9",
            "fig10", "ablations"}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_run_experiment_renders(self):
        text = run_experiment("fig5", days=2)
        assert "Fig 5" in text


class TestScenario:
    def test_build_scenario_consistent(self):
        scenario = build_scenario(seed=1, days=2)
        assert scenario.traces.n_slots == scenario.system.horizon_slots

    def test_scenario_battery_override(self):
        scenario = build_scenario(seed=1, days=2, battery_minutes=0.0)
        system = scenario.system
        # The battery can shift no energy in either direction.
        assert system.max_charge_energy(system.b_min) == 0.0
        assert system.max_discharge_energy(system.b_max) == 0.0


class TestShortRuns:
    def test_fig5(self):
        result = run_fig5(seed=3, days=3)
        assert len(result.hourly_demand) == 24
        assert result.price_premium_rt_over_lt > 0

    def test_fig6_v(self):
        result = run_fig6_v(seed=3, v_values=(0.1, 5.0), days=4)
        assert len(result.rows) == 2
        assert result.offline_cost < result.impatient_cost

    def test_fig6_t(self):
        result = run_fig6_t(seed=3, t_values=(6, 24), days=4)
        assert {r.t_slots for r in result.rows} == {6, 24}

    def test_fig7(self):
        result = run_fig7(seed=3, days=4, n_seeds=1)
        assert len(result.epsilon_rows) == 4
        assert len(result.battery_rows) == 3
        assert result.two_markets_cheaper

    def test_fig8(self):
        result = run_fig8(seed=3, days=4)
        assert result.penetration_cost_decreasing

    def test_fig9(self):
        result = run_fig9(seed=3, v_values=(1.0,), days=4)
        lo, hi = result.difference_band
        assert lo <= hi

    def test_fig10(self):
        result = run_fig10(seed=3, beta_values=(1.0, 2.0), days=4)
        assert result.rows[1].time_avg_cost > \
            result.rows[0].time_avg_cost

    def test_ablations(self):
        result = run_ablations(seed=3, days=4)
        assert {r.study for r in result.rows} == {
            "objective", "cycle_budget", "battery_margin",
            "p4_arrivals", "baseline"}
