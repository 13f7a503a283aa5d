"""Empirical Theorem 1 drift-inequality verification."""

import pytest

from oracles.drift import (
    DriftRecorder,
    lyapunov,
    slot_h_constant,
    verify_drift_inequality,
)
from repro.config.presets import paper_controller_config, paper_system_config
from repro.sim.engine import Simulator
from repro.traces.library import make_paper_traces


class TestLyapunovFunction:
    def test_quadratic(self):
        assert lyapunov(2.0, 0.0, 0.0) == pytest.approx(2.0)
        assert lyapunov(1.0, 2.0, 3.0) == pytest.approx(7.0)

    def test_nonnegative(self):
        assert lyapunov(-3.0, 1.0, -2.0) >= 0.0


class TestSlotHConstant:
    def test_positive(self):
        system = paper_system_config()
        assert slot_h_constant(system, epsilon=0.5) > 0.0

    def test_grows_with_epsilon_beyond_service_cap(self):
        system = paper_system_config()
        small = slot_h_constant(system, epsilon=0.5)
        large = slot_h_constant(system, epsilon=5.0)
        assert large > small


class TestDriftInequality:
    @pytest.mark.parametrize("v", [0.1, 1.0, 5.0])
    def test_holds_over_a_week(self, v):
        system = paper_system_config(days=7)
        traces = make_paper_traces(system, seed=13)
        recorder = DriftRecorder(paper_controller_config(v=v))
        Simulator(system, recorder, traces).run()
        report = verify_drift_inequality(recorder.samples, system,
                                         epsilon=0.5)
        assert report["n_samples"] == system.horizon_slots
        assert report["holds"], report

    def test_holds_with_paper_objective(self):
        system = paper_system_config(days=4)
        traces = make_paper_traces(system, seed=14)
        recorder = DriftRecorder(
            paper_controller_config(objective_mode="paper"))
        Simulator(system, recorder, traces).run()
        report = verify_drift_inequality(recorder.samples, system,
                                         epsilon=0.5)
        # The drift bound is a property of the *dynamics*, so it holds
        # whatever objective picked the actions.
        assert report["holds"], report

    def test_margin_reported(self):
        system = paper_system_config(days=2)
        traces = make_paper_traces(system, seed=15)
        recorder = DriftRecorder(paper_controller_config())
        Simulator(system, recorder, traces).run()
        report = verify_drift_inequality(recorder.samples, system,
                                         epsilon=0.5)
        assert report["worst_margin"] >= 0.0
        assert report["violations"] == 0

    def test_recorder_resets_between_horizons(self):
        system = paper_system_config(days=2)
        traces = make_paper_traces(system, seed=16)
        recorder = DriftRecorder(paper_controller_config())
        Simulator(system, recorder, traces).run()
        first = len(recorder.samples)
        Simulator(system, recorder, traces).run()
        assert len(recorder.samples) == first
