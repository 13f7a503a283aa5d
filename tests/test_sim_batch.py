"""Unit tests for the batch engine's API surface and error paths."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.engine import BatchRecorder
from repro.config.control import SmartDPSSConfig
from repro.config.presets import paper_controller_config, paper_system_config
from repro.core.p5_vec import P5Workspace
from repro.core.smartdpss import SmartDPSS
from repro.core.smartdpss_vec import RealTimeWorkspace, VecSmartDPSS
from repro.exceptions import (
    ConfigurationError,
    HorizonMismatchError,
    InfeasibleActionError,
)
from repro.experiments.fig10_scaling import build_fig10_specs
from repro.fleet.engine import (
    PhysicsWorkspace,
    StreamingBatchSimulator,
    StreamRunSpec,
)
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import ScenarioSpec
from repro.fleet.stream import ArrayTraceStream
from repro.sim.batch import ScalarControllerBatch
from repro.sim.engine import Simulator
from repro.sim.recorder import SERIES_NAMES
from repro.sim.vecstate import VecCycleLedger
from repro.telemetry import monotonic
from repro.traces.library import make_paper_traces
from tests.conftest import streamed_results


def _spec(seed=1, days=2, system=None, **config):
    system = system or paper_system_config(days=days)
    return StreamRunSpec(
        system=system,
        controller=SmartDPSS(paper_controller_config(**config)),
        stream=ArrayTraceStream(make_paper_traces(system, seed=seed)))


def _traces(spec):
    return spec.stream.materialize()


def _price_error(system, traces, chunk_coarse=1) -> str:
    """Rejection text of the batch engine for one group of SmartDPSS
    runs over ``traces``."""
    with pytest.raises(InfeasibleActionError) as streamed:
        StreamingBatchSimulator(
            [StreamRunSpec(system=system,
                           controller=SmartDPSS(paper_controller_config()),
                           stream=ArrayTraceStream(t)) for t in traces],
            chunk_coarse=chunk_coarse).run()
    return str(streamed.value)


def _bad_capacities(n_slots) -> list[np.ndarray]:
    """Feeder capacities every engine must reject: all negative, and
    one NaN slot (which a plain ``capacity < 0`` check lets through)."""
    nan_slot = np.ones(n_slots)
    nan_slot[5] = np.nan
    return [np.full(n_slots, -1.0), nan_slot]


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingBatchSimulator([])

    def test_mixed_timescale_shapes_rejected(self):
        a = _spec(days=2)
        b_system = paper_system_config(days=2, fine_slots_per_coarse=12)
        b = _spec(seed=2, system=b_system)
        with pytest.raises(HorizonMismatchError):
            StreamingBatchSimulator([a, b])

    def test_short_traces_rejected(self):
        long_system = paper_system_config(days=4)
        short = make_paper_traces(paper_system_config(days=2), seed=1)
        with pytest.raises(HorizonMismatchError):
            StreamingBatchSimulator([StreamRunSpec(
                system=long_system,
                controller=SmartDPSS(paper_controller_config()),
                stream=ArrayTraceStream(short))])

    def test_short_grid_capacity_rejected(self):
        spec = _spec(days=2)
        with pytest.raises(HorizonMismatchError):
            StreamingBatchSimulator([StreamRunSpec(
                system=spec.system, controller=spec.controller,
                stream=spec.stream, grid_capacity=np.ones(3))])

    def test_negative_grid_capacity_rejected(self):
        spec = _spec(days=2)
        for capacity in _bad_capacities(spec.system.horizon_slots):
            with pytest.raises(ConfigurationError):
                StreamingBatchSimulator([StreamRunSpec(
                    system=spec.system, controller=spec.controller,
                    stream=spec.stream, grid_capacity=capacity)])

    def test_streamed_engine_validates_grid_capacity(self):
        spec = _spec(days=2)
        n_slots = spec.system.horizon_slots

        def build(capacity):
            return StreamingBatchSimulator([StreamRunSpec(
                system=spec.system, controller=spec.controller,
                stream=spec.stream, grid_capacity=capacity)])

        with pytest.raises(HorizonMismatchError):
            build(np.ones(3))
        for capacity in _bad_capacities(n_slots):
            with pytest.raises(ConfigurationError):
                build(capacity)
        build(np.full(n_slots, spec.system.p_grid))

    def test_over_cap_price_rejected(self):
        spec = _spec(days=2)
        traces = _traces(spec)
        n_slots, p_max = traces.n_slots, spec.system.p_max
        traces = traces.replace(price_rt=np.full(n_slots, p_max * 2))
        assert _price_error(spec.system, [traces]) == (
            f"real-time: price outside [0, {p_max}] (observed range "
            f"[{p_max * 2}, {p_max * 2}])")

    def test_over_cap_offender_order(self):
        """The engine names the first bad scenario, real-time before
        long-term within it."""
        spec = _spec(days=2)
        traces = _traces(spec)
        n_slots, p_max = traces.n_slots, spec.system.p_max
        long_term = traces.replace(
            price_lt_hourly=np.full(n_slots, p_max * 3))
        both = traces.replace(
            price_rt=np.full(n_slots, p_max * 2),
            price_lt_hourly=np.full(n_slots, p_max * 4))
        assert _price_error(
            spec.system, [traces, long_term, both]) == (
            f"long-term: price outside [0, {p_max}] (observed range "
            f"[{p_max * 3}, {p_max * 3}])")
        assert _price_error(spec.system, [both, long_term]) == (
            f"real-time: price outside [0, {p_max}] (observed range "
            f"[{p_max * 2}, {p_max * 2}])")

    def test_late_over_cap_price_rejected_in_its_chunk(self):
        """An over-cap real-time price in the last coarse slot only:
        the engine rejects it as that chunk loads, reporting the range
        of the chunk's own slots, not of the planning tail it carries
        over from the previous chunk."""
        spec = _spec(days=4)
        traces = _traces(spec)
        system, p_max = spec.system, spec.system.p_max
        n_slots, t_slots = system.horizon_slots, system.fine_slots_per_coarse
        assert n_slots >= 3 * t_slots
        price_rt = np.array(traces.price_rt[:n_slots], dtype=float)
        price_rt[n_slots - t_slots:] = p_max * 2
        late = traces.replace(price_rt=price_rt)
        assert _price_error(system, [traces, late], chunk_coarse=1) == (
            f"real-time: price outside [0, {p_max}] (observed range "
            f"[{p_max * 2}, {p_max * 2}])")

    def test_nan_price_rejected(self):
        """The inverted comparison rejects NaN, as the scalar markets'
        ``0 <= price <= cap`` check does."""
        simulator = StreamingBatchSimulator(
            [_spec(seed, days=2) for seed in (1, 2)])
        simulator._load_chunk(0, simulator._n_slots,
                              simulator._trace_source.open(), None)
        simulator._true_plt = simulator._true_plt.copy()
        simulator._true_plt[1, 1] = np.nan
        with pytest.raises(InfeasibleActionError,
                           match=r"^long-term: .* \[nan, nan\]"):
            simulator._check_prices(0)

    def test_negative_purchase_rejected(self):
        class NegativeBuyer:
            names = ["negative"]

            def begin_horizon(self, systems):
                self._n = len(systems)

            def plan_long_term(self, observations):
                return np.zeros(self._n)

            def real_time(self, obs):
                return np.full(self._n, -1.0), np.zeros(self._n)

            def end_slot(self, feedback):
                pass

        spec = _spec(days=2)
        simulator = StreamingBatchSimulator([spec],
                                            controller=NegativeBuyer())
        with pytest.raises(InfeasibleActionError):
            simulator.run()


class TestVecSmartDPSS:
    def test_mixed_objective_modes_rejected(self):
        with pytest.raises(ConfigurationError):
            VecSmartDPSS([
                SmartDPSS(SmartDPSSConfig(objective_mode="paper")),
                SmartDPSS(SmartDPSSConfig(objective_mode="derived")),
            ])

    def test_names_carry_per_scenario_config(self):
        vec = VecSmartDPSS([SmartDPSS(SmartDPSSConfig(v=0.5)),
                            SmartDPSS(SmartDPSSConfig(v=2.0))])
        assert vec.names[0] != vec.names[1]
        assert "0.5" in vec.names[0] and "2" in vec.names[1]


class TestSimulateMany:
    """Many runs at once: grouping by objective mode, shared
    controller instances and the batch-vs-serial canary."""

    def test_mixed_objective_modes_grouped_not_rejected(self):
        specs = [ScenarioSpec(seed=seed, system={"days": 2},
                              controller={"kind": "smartdpss",
                                          "objective_mode": mode},
                              trace={"kind": "paper"})
                 for seed, mode in ((1, "derived"), (2, "paper"),
                                    (3, "derived"))]
        records = FleetRunner(specs, fail_fast=True).run()
        assert [r["metrics"]["controller_name"] for r in records] \
            == [spec.build_controller().name for spec in specs]

    def test_shared_controller_instance_gets_copies(self):
        shared = SmartDPSS(paper_controller_config())
        system = paper_system_config(days=2)
        traces = [make_paper_traces(system, seed=s) for s in (1, 2)]
        batch = streamed_results([
            StreamRunSpec(system=system, controller=shared,
                          stream=ArrayTraceStream(t)) for t in traces])
        serial = [Simulator(system, shared, t).run() for t in traces]
        for a, b in zip(serial, batch):
            assert np.array_equal(a.series["cost_total"],
                                  b.series["cost_total"])

    def test_batch_smoke_runs_and_does_not_regress(self):
        """Canary on a tiny Fig. 10 fleet (2 seeds x 4 β, 4 days): the
        batch engine matches the serial scalar engine bitwise on every
        series and delay histogram, and takes at most 2x its
        wall-clock.  The 2x gate is loose on purpose, so machine noise
        cannot flake it; a per-scenario Python loop back on the hot
        path overshoots it by far."""
        specs = [spec for seed in range(2)
                 for spec in build_fig10_specs(seed=seed, days=4)]
        assert len(specs) == 8
        systems = [spec.build_system() for spec in specs]
        traces = [spec.build_traces(system)
                  for spec, system in zip(specs, systems)]
        start = monotonic()
        serial = [Simulator(system, spec.build_controller(), t).run()
                  for spec, system, t in zip(specs, systems, traces)]
        serial_s = monotonic() - start
        runs = [StreamRunSpec(system=system,
                              controller=spec.build_controller(),
                              stream=ArrayTraceStream(t))
                for spec, system, t in zip(specs, systems, traces)]
        start = monotonic()
        batch = streamed_results(runs)
        batch_s = monotonic() - start
        for index, (a, b) in enumerate(zip(serial, batch)):
            for name in SERIES_NAMES:
                assert np.array_equal(a.series[name], b.series[name]), (
                    f"run {index}: series {name!r} diverged")
            assert a.delay_stats.histogram == b.delay_stats.histogram, (
                f"run {index}: delay histogram diverged")
        assert batch_s <= 2.0 * serial_s, (
            f"batch path took {batch_s / serial_s:.2f}x serial (gate: 2x)")


class TestScalarAdapter:
    def test_budget_left_conversion(self):
        assert ScalarControllerBatch._budget_left(np.inf) is None
        assert ScalarControllerBatch._budget_left(3.0) == 3

    def test_empty_controllers_rejected(self):
        with pytest.raises(ConfigurationError):
            ScalarControllerBatch([])


class TestVecState:
    def test_recorder_rejects_unknown_series(self):
        recorder = BatchRecorder(2, 4)
        with pytest.raises(KeyError):
            recorder.record(nonsense=np.zeros(2))

    def test_recorder_rejects_overflow(self):
        recorder = BatchRecorder(1, 1)
        recorder.record(cost_total=np.ones(1))
        with pytest.raises(IndexError):
            recorder.record(cost_total=np.ones(1))

    def test_cycle_ledger_budget_exhaustion(self):
        cycles = VecCycleLedger(op_cost=0.1, budgets=[1, None], n=2)
        cost = np.empty(2)
        masks = np.empty(2, dtype=bool), np.empty(2, dtype=bool)
        assert cycles.record(np.array([0.5, 0.5]), np.zeros(2), cost,
                             *masks) is cost
        assert cost.tolist() == [0.1, 0.1]
        assert cycles.remaining.tolist() == [0.0, np.inf]


class TestBatchCoarseObservation:
    def _observation(self, runs):
        simulator = StreamingBatchSimulator(runs)
        state = simulator._begin_run(BatchRecorder(len(runs),
                                                   simulator._n_slots))
        simulator._load_chunk(0, simulator._n_slots,
                              simulator._trace_source.open(), None)
        return simulator._coarse_observations(
            0, 0, state.battery, state.backlog, state.cycles)

    def test_scalar_split_matches_engine_reference(self):
        system = paper_system_config(days=2)
        runs = [_spec(seed=seed, system=system) for seed in (1, 2, 3)]
        obs = self._observation(runs)
        assert obs.batch == 3
        for index, run in enumerate(runs):
            captured = {}

            class Spy(SmartDPSS):
                def plan_long_term(self, observation):
                    captured.setdefault("obs", observation)
                    return super().plan_long_term(observation)

            Simulator(system, Spy(run.controller.config),
                      _traces(run)).run()
            assert obs.scalar(index) == captured["obs"]

    def test_window_means_are_slot_order_sums(self):
        block = np.array([[0.1, 0.2, 0.7], [1.5, 2.5, 3.5]])
        means = StreamingBatchSimulator._window_mean(block)
        for row in range(2):
            assert means[row] == sum(block[row].tolist()) / 3

    def test_missing_lookback_tail_raises(self):
        system = paper_system_config(days=2)
        simulator = StreamingBatchSimulator([_spec(system=system)])
        state = simulator._begin_run(BatchRecorder(1, simulator._n_slots))
        t_slots = system.fine_slots_per_coarse
        # Simulate a resident window that lost its planning tail.
        simulator._slot0 = t_slots + 1
        with pytest.raises(HorizonMismatchError, match="planning tail"):
            simulator._coarse_observations(2, 2 * t_slots, state.battery,
                                           state.backlog, state.cycles)


def test_workspace_buffers_shapes():
    p5 = P5Workspace(batch=5)
    assert p5.grt.shape == (17, 5)
    assert p5.valid.dtype == bool
    assert bool(p5.valid[0].all()) and bool(p5.valid[16].all())
    assert float(abs(p5.grt[0]).sum()) == 0.0
    rt = RealTimeWorkspace(5)
    assert rt.price_n.shape == (5,)
    phys = PhysicsWorkspace(5)
    assert phys.rate.shape == (5,)
    assert phys.m1.dtype == bool
