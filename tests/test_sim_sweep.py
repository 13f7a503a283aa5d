"""Seed-averaged sweep tables, as a result store renders them."""

import pytest

from repro.exceptions import ConfigurationError
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import ScenarioSpec, grid_specs
from repro.fleet.store import DEFAULT_TABLE_METRICS, ResultStore


def v_sweep(tmp_path, values=(0.1, 5.0), seeds=(1,), observation=None,
            name="store"):
    """A stored V sweep (2-day paper traces) folded into its table."""
    template = ScenarioSpec(system={"preset": "paper", "days": 2},
                            controller={"kind": "smartdpss"},
                            trace={"kind": "paper"},
                            observation=observation)
    store = ResultStore(tmp_path / name)
    FleetRunner(grid_specs(template, "controller.v", list(values),
                           seeds=seeds), store=store).run()
    return store.sweep_table(name="V sweep")


class TestSweep:
    def test_runs_all_values(self, tmp_path):
        table = v_sweep(tmp_path)
        assert len(table.points) == 2
        assert table.points[0].value == 0.1
        assert table.points[0].n_seeds == 1

    def test_seed_averaging(self, tmp_path):
        single = v_sweep(tmp_path, (1.0,), seeds=(1,), name="one")
        double = v_sweep(tmp_path, (1.0,), seeds=(1, 2), name="both")
        other = v_sweep(tmp_path, (1.0,), seeds=(2,), name="two")
        assert double.points[0].n_seeds == 2
        # Averaged value lies between per-seed extremes.
        a = single.points[0].metrics["time_avg_cost"]
        b = other.points[0].metrics["time_avg_cost"]
        mean = double.points[0].metrics["time_avg_cost"]
        assert min(a, b) - 1e-9 <= mean <= max(a, b) + 1e-9

    def test_column_extraction(self, tmp_path):
        table = v_sweep(tmp_path)
        costs = table.column("time_avg_cost")
        assert len(costs) == 2

    def test_unknown_metric_rejected(self, tmp_path):
        table = v_sweep(tmp_path)
        with pytest.raises(KeyError):
            table.column("nope")

    def test_render_contains_values(self, tmp_path):
        table = v_sweep(tmp_path)
        text = table.render()
        assert "V sweep" in text
        assert "time_avg_cost" in text

    def test_monotone_helper(self, tmp_path):
        table = v_sweep(tmp_path, (0.1, 5.0), seeds=(1, 2))
        # Availability constant at 1 counts as monotone either way.
        assert table.is_monotone("availability", increasing=True)
        assert table.is_monotone("availability", increasing=False)

    def test_empty_values_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            v_sweep(tmp_path, ())

    def test_empty_seeds_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            v_sweep(tmp_path, seeds=())

    def test_observed_traces_variant(self, tmp_path):
        """A sweep whose controllers observe through an (here quiet)
        observation model, physics on the truth."""
        table = v_sweep(tmp_path, (1.0,), observation={
            "kind": "uniform", "rel_error": 0.0})
        assert table.points[0].metrics["availability"] == 1.0

    def test_default_metrics_cover_headlines(self):
        assert {"time_avg_cost", "avg_delay_slots",
                "availability"} <= set(DEFAULT_TABLE_METRICS)
