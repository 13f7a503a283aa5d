"""Cross-engine equivalence: the batch engine *is* the scalar engine.

The vectorized :class:`~repro.fleet.engine.StreamingBatchSimulator` is
a physics re-implementation of :class:`~repro.sim.engine.Simulator`,
so this harness is its safeguard: hypothesis generates random systems,
controller configurations and traces — including grid-outage capacity
masks, observation models (all five kinds), cycle budgets and both P5
objective modes — and every generated scenario is run through both
engines and compared *slot for slot* (cost components, battery SOC,
backlog, purchases, service, waste; the batch side through a
:class:`~repro.sim.vecstate.BatchRecorder`) plus the delay ledger and
market/cycle accounting.  The scalar side observes
:meth:`~repro.fleet.observe.ObservationSpec.observed_traces`, the
whole-horizon reference of the batch engine's chunked observation
layer.

Tolerance is the acceptance bar of 1e-9, but the engines are built to
be bit-identical (same IEEE-754 operations in the same order), and the
batch-of-1 property test asserts exact equality separately.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config.control import SmartDPSSConfig
from repro.config.system import SystemConfig
from repro.core.smartdpss import SmartDPSS
from repro.fleet.engine import StreamRunSpec
from repro.fleet.observe import observation_from_mapping
from repro.fleet.stream import ArrayTraceStream
from repro.sim.engine import Simulator
from repro.sim.recorder import SERIES_NAMES
from repro.traces.base import TraceSet
from tests.conftest import streamed_results

pytestmark = pytest.mark.equivalence

#: Acceptance tolerance for per-slot state and final metrics.
TOL = 1e-9


def _floats(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi,
                     allow_nan=False, allow_infinity=False)


def _series(draw, n: int, lo: float, hi: float) -> np.ndarray:
    return np.array(draw(st.lists(_floats(lo, hi),
                                  min_size=n, max_size=n)))


@st.composite
def systems(draw) -> SystemConfig:
    """Random but physically valid small systems."""
    b_max = draw(_floats(0.0, 1.5))
    return SystemConfig(
        fine_slots_per_coarse=draw(st.integers(1, 6)),
        num_coarse_slots=draw(st.integers(2, 4)),
        p_max=200.0,
        p_grid=draw(_floats(0.2, 3.0)),
        s_max=draw(_floats(1.0, 8.0)),
        b_max=b_max,
        b_min=b_max * draw(_floats(0.0, 0.5)),
        b_charge_max=draw(_floats(0.0, 1.0)),
        b_discharge_max=draw(_floats(0.0, 1.0)),
        eta_c=draw(_floats(0.5, 1.0)),
        eta_d=draw(_floats(1.0, 1.5)),
        battery_op_cost=draw(_floats(0.0, 0.3)),
        cycle_budget=draw(st.one_of(st.none(), st.integers(0, 6))),
        d_dt_max=draw(_floats(0.1, 1.5)),
        s_dt_max=draw(_floats(0.2, 2.0)),
        waste_penalty=draw(_floats(0.0, 2.0)),
    )


@st.composite
def controller_configs(draw) -> SmartDPSSConfig:
    return SmartDPSSConfig(
        v=draw(_floats(0.05, 5.0)),
        epsilon=draw(_floats(0.1, 2.0)),
        objective_mode=draw(st.sampled_from(["derived", "paper"])),
        use_long_term_market=draw(st.booleans()),
        use_battery=draw(st.booleans()),
        battery_shift_mode=draw(
            st.sampled_from(["operational", "paper"])),
        battery_price_margin=draw(_floats(0.0, 5.0)),
        plan_deferrable_arrivals=draw(st.booleans()),
    )


@st.composite
def observation_models(draw, price_cap: float):
    """A random observation model of any registered kind, or ``None``."""
    kind = draw(st.sampled_from(
        [None, "uniform", "dropout", "stuck", "bias_drift", "delay"]))
    if kind is None:
        return None
    params = {
        "uniform": lambda: {"rel_error": draw(_floats(0.0, 0.9))},
        "dropout": lambda: {"rate": draw(_floats(0.0, 0.9))},
        "stuck": lambda: {"rate": draw(_floats(0.0, 0.9)),
                          "duration": draw(st.integers(1, 4))},
        "bias_drift": lambda: {"sigma": draw(_floats(0.0, 0.3))},
        "delay": lambda: {"slots": draw(st.integers(0, 5))},
    }[kind]()
    return observation_from_mapping(
        {"kind": kind, "seed": draw(st.integers(0, 2**20)), **params},
        default_seed=0, price_cap=price_cap)


@st.composite
def scenario_packs(draw):
    """2-4 scenarios sharing one two-timescale shape.

    Scenarios vary in traces, controller configuration, observation
    model and per-slot grid capacity (zero entries model outages), so
    one pack exercises batching, the emergency/unserved path and the
    cycle-budget cutoff together.
    """
    base = draw(systems())
    n = base.horizon_slots
    runs = []
    for _ in range(draw(st.integers(2, 4))):
        traces = TraceSet(
            demand_ds=_series(draw, n, 0.0, 2.5),
            demand_dt=_series(draw, n, 0.0, 1.5),
            renewable=_series(draw, n, 0.0, 2.0),
            price_rt=_series(draw, n, 0.0, 200.0),
            price_lt_hourly=_series(draw, n, 0.0, 200.0),
        )
        capacity = None
        if draw(st.booleans()):
            up = _series(draw, n, 0.0, 1.0) < 0.8
            capacity = np.where(up, base.p_grid, 0.0)
        runs.append(StreamRunSpec(
            system=base,
            controller=SmartDPSS(draw(controller_configs())),
            stream=ArrayTraceStream(traces),
            grid_capacity=capacity,
            observation=draw(observation_models(base.p_max)),
        ))
    return runs


def assert_equivalent(scalar, batch, context: str = "") -> None:
    """Per-slot state and final metrics agree within 1e-9."""
    for name in SERIES_NAMES:
        a, b = scalar.series[name], batch.series[name]
        assert a.shape == b.shape, f"{context}{name}: shape"
        worst = float(np.max(np.abs(a - b))) if a.size else 0.0
        assert worst <= TOL, (
            f"{context}series {name!r} diverges by {worst} at slot "
            f"{int(np.argmax(np.abs(a - b)))}")
    sd, bd = scalar.delay_stats, batch.delay_stats
    assert abs(sd.served_energy - bd.served_energy) <= TOL, context
    assert abs(sd.weighted_delay - bd.weighted_delay) <= TOL, context
    assert sd.max_delay == bd.max_delay, context
    assert scalar.battery_operations == batch.battery_operations, context
    assert abs(scalar.lt_energy - batch.lt_energy) <= TOL, context
    assert abs(scalar.rt_energy - batch.rt_energy) <= TOL, context
    assert scalar.controller_name == batch.controller_name, context


def _scalar_run(run):
    """The scalar reference of one run, on a fresh controller."""
    traces = run.stream.materialize()
    observed = (None if run.observation is None
                else run.observation.observed_traces(traces))
    return Simulator(run.system, SmartDPSS(run.controller.config),
                     traces, observed=observed,
                     grid_capacity=run.grid_capacity).run()


def run_both(runs):
    """One scalar reference run per spec, plus the batched fleet.

    Packs mixing both P5 objective modes run as one batch per mode, as
    the fleet runner groups them.
    """
    scalar = [_scalar_run(run) for run in runs]
    batch = [None] * len(runs)
    for mode in ("derived", "paper"):
        indices = [i for i, run in enumerate(runs)
                   if run.controller.config.objective_mode == mode]
        if indices:
            for i, result in zip(indices, streamed_results(
                    [runs[i] for i in indices])):
                batch[i] = result
    return scalar, batch


@settings(max_examples=60, deadline=None)
@given(scenario_packs())
def test_batch_matches_scalar_slot_for_slot(runs):
    """≥50 hypothesis scenarios: batch == scalar within 1e-9."""
    scalar, batch = run_both(runs)
    for index, (a, b) in enumerate(zip(scalar, batch)):
        assert_equivalent(a, b, context=f"scenario {index}: ")


def test_p5_fast_path_matches_scalar_tie_zone():
    """The batch P5 row selection picks the scalar scan's vertex.

    At slot 1 of scenario 0 the candidate values include ``1e-31``
    (row 2) and ``-1e-12`` (row 3).  The scalar scan keeps row 2,
    because row 3's ``-1e-12`` is not below
    ``fl(1e-31 - 1e-12) == -1e-12``; argmin would pick row 3, and
    ``grt`` would then diverge by 1.0 at slot 2.
    """
    system = SystemConfig(
        fine_slots_per_coarse=1, num_coarse_slots=4, p_grid=1, s_max=1,
        b_max=0, b_min=0, b_charge_max=0, b_discharge_max=0,
        battery_op_cost=0, d_dt_max=1, s_dt_max=1, waste_penalty=0)
    config = SmartDPSSConfig(
        v=1, epsilon=1, objective_mode="derived",
        use_long_term_market=False, plan_deferrable_arrivals=True)
    zero = np.zeros(4)
    traces = [
        TraceSet(demand_ds=np.array([0.0, 0.5, 0.0, 0.0]),
                 demand_dt=np.array([1e-6, 0.0, 0.0, 0.0]),
                 renewable=zero, price_rt=np.array([0.0, 1e-30, 0.0, 0.0]),
                 price_lt_hourly=zero),
        TraceSet(demand_ds=zero, demand_dt=zero, renewable=zero,
                 price_rt=zero, price_lt_hourly=zero),
    ]
    runs = [StreamRunSpec(system=system, controller=SmartDPSS(config),
                          stream=ArrayTraceStream(t)) for t in traces]
    scalar, batch = run_both(runs)
    for index, (a, b) in enumerate(zip(scalar, batch)):
        assert_equivalent(a, b, context=f"scenario {index}: ")
