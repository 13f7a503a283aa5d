"""Batch planning layer: exact equality under mixed per-scenario configs.

The vectorized planning boundary (``prepare_plan_batch`` +
``BatchCoarseObservation``) must be *bit-identical* to the scalar path
— not merely within tolerance — for any mix of per-scenario planning
configurations in one batch:

* ``paper`` and ``operational`` battery-shift modes side by side
  (the paper mode exercises the array-capable ``compute_bounds``);
* scenarios with the long-term market disabled (``prepare_plan``
  returns ``None`` — the zero-purchase path);
* scenarios with the battery disabled;
* per-scenario ``V`` / ``ε`` / margins.

Every pack runs two ways — scalar :class:`Simulator` (the reference)
and the batch engine — and both must agree exactly.  The batch
controller's own arrays must also match the scalar run's controller
at every index: virtual-queue state (values, peaks, extremes), the
price mean including its first-boundary seed and the frozen Lyapunov
weights.  The scalar instances handed to the batch are left untouched.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config.control import SmartDPSSConfig
from repro.config.presets import paper_controller_config, paper_system_config
from repro.config.system import SystemConfig
from repro.core.smartdpss import SmartDPSS
from repro.core.smartdpss_vec import VecSmartDPSS
from repro.fleet.engine import StreamRunSpec
from repro.fleet.stream import ArrayTraceStream
from repro.sim.engine import Simulator
from repro.sim.recorder import SERIES_NAMES
from repro.traces.base import TraceSet
from repro.traces.library import make_paper_traces
from tests.conftest import streamed_results

pytestmark = pytest.mark.equivalence


def _floats(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi,
                     allow_nan=False, allow_infinity=False)


def _series(draw, n: int, lo: float, hi: float) -> np.ndarray:
    return np.array(draw(st.lists(_floats(lo, hi),
                                  min_size=n, max_size=n)))


@st.composite
def mixed_systems(draw) -> SystemConfig:
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
def mixed_packs(draw):
    """4-6 scenarios forcing every planning-config mix into one batch.

    The first four scenarios pin the combinations the batch planner
    must branch on — paper shift, operational shift, no long-term
    market, no battery — and the rest are fully random, so every pack
    exercises mode mixing rather than leaving it to chance.
    """
    base = draw(mixed_systems())
    n = base.horizon_slots
    mode = draw(st.sampled_from(["derived", "paper"]))

    def config(**forced) -> SmartDPSSConfig:
        return SmartDPSSConfig(
            v=draw(_floats(0.05, 5.0)),
            epsilon=draw(_floats(0.1, 2.0)),
            objective_mode=mode,
            use_long_term_market=forced.get(
                "use_long_term_market", draw(st.booleans())),
            use_battery=forced.get("use_battery", draw(st.booleans())),
            battery_shift_mode=forced.get(
                "battery_shift_mode",
                draw(st.sampled_from(["operational", "paper"]))),
            battery_price_margin=draw(_floats(0.0, 5.0)),
            plan_deferrable_arrivals=draw(st.booleans()),
        )

    configs = [
        config(battery_shift_mode="paper"),
        config(battery_shift_mode="operational"),
        config(use_long_term_market=False),
        config(use_battery=False),
    ]
    for _ in range(draw(st.integers(0, 2))):
        configs.append(config())

    runs = []
    for cfg in configs:
        traces = TraceSet(
            demand_ds=_series(draw, n, 0.0, 2.5),
            demand_dt=_series(draw, n, 0.0, 1.5),
            renewable=_series(draw, n, 0.0, 2.0),
            price_rt=_series(draw, n, 0.0, 200.0),
            price_lt_hourly=_series(draw, n, 0.0, 200.0),
        )
        runs.append(StreamRunSpec(system=base, controller=SmartDPSS(cfg),
                                  stream=ArrayTraceStream(traces)))
    return runs


def controller_state(controller: SmartDPSS) -> dict:
    """Everything post-run introspection can read off an instance."""
    return {
        "y_queue": controller.delay_queue.state(),
        "x_queue": controller.battery_queue.state(),
        "price_mean": controller._rt_price_mean.state(),
        "frozen_weights": controller.frozen_weights,
    }


def vector_state(vec: VecSmartDPSS, index: int) -> dict:
    """:func:`controller_state` read off the batch controller's arrays.

    The ``X`` extremes stay at ±inf until the battery queue is first
    observed, where the scalar queue reports ``None``.
    """
    observed = bool(np.isfinite(vec._x_min[index]))

    def seen(array: np.ndarray) -> float | None:
        return float(array[index]) if observed else None

    return {
        "y_queue": {"value": float(vec._y[index]),
                    "peak": float(vec._y_peak[index])},
        "x_queue": {"shift": float(vec._shift[index]),
                    "value": seen(vec._x_value),
                    "min_seen": seen(vec._x_min),
                    "max_seen": seen(vec._x_max)},
        "price_mean": {"sum": float(vec._rt_sum[index]),
                       "count": vec._rt_count,
                       "initial": float(vec._rt_initial[index])},
        "frozen_weights": (float(vec._q_hat[index]),
                           float(vec._y_hat[index]),
                           float(vec._x_hat[index])),
    }


def assert_exact(scalar, batch, context: str) -> None:
    """Bit-for-bit agreement of every series and final metric."""
    for name in SERIES_NAMES:
        a, b = scalar.series[name], batch.series[name]
        assert np.array_equal(a, b), (
            f"{context}: series {name!r} diverges at slot "
            f"{int(np.argmax(a != b))}")
    assert scalar.delay_stats.served_energy == batch.delay_stats.served_energy
    assert scalar.delay_stats.weighted_delay == batch.delay_stats.weighted_delay
    assert scalar.delay_stats.max_delay == batch.delay_stats.max_delay
    assert scalar.battery_operations == batch.battery_operations
    assert scalar.lt_energy == batch.lt_energy
    assert scalar.rt_energy == batch.rt_energy


def run_both_ways(runs):
    """Scalar reference and the batch engine, on fresh controllers.

    Returns the scalar results and controllers, then the batch results
    and the batch controller.
    """
    scalar_results = []
    scalar_controllers = []
    for run in runs:
        controller = SmartDPSS(run.controller.config)
        scalar_controllers.append(controller)
        scalar_results.append(Simulator(
            run.system, controller, run.stream.materialize()).run())

    vec = VecSmartDPSS([run.controller for run in runs])
    batch_results = streamed_results(runs, controller=vec)
    return (scalar_results, scalar_controllers), (batch_results, vec)


@settings(max_examples=40, deadline=None)
@given(mixed_packs())
def test_mixed_config_planning_exact(runs):
    """Batch planning == scalar engine, bit for bit."""
    (scalar_results, scalar_controllers), (batch_results, vec) = \
        run_both_ways(runs)
    for index in range(len(runs)):
        assert_exact(scalar_results[index], batch_results[index],
                     f"scenario {index} (batch planning)")
        reference = controller_state(scalar_controllers[index])
        assert vector_state(vec, index) == reference, \
            f"scenario {index}: batch-planned introspection diverges"


def test_vector_state_matches_scalar_introspection():
    """Deterministic check: the batch arrays match scalar runs exactly.

    Covers the ``X`` queue extremes, the frozen weights and the
    price-mean seed under every planning-config mix on the paper's own
    traces, and that the instances given to the batch stay untouched.
    """
    system = paper_system_config(days=3)
    configs = [
        paper_controller_config(),
        paper_controller_config().replace(battery_shift_mode="paper"),
        paper_controller_config(use_long_term_market=False),
        paper_controller_config(use_battery=False, v=2.5),
        paper_controller_config(v=0.1, epsilon=1.5),
    ]
    runs = [StreamRunSpec(system=system, controller=SmartDPSS(cfg),
                          stream=ArrayTraceStream(
                              make_paper_traces(system, seed=11 + index)))
            for index, cfg in enumerate(configs)]
    (_, scalar_controllers), (_, vec) = run_both_ways(runs)
    for index, reference in enumerate(scalar_controllers):
        assert vector_state(vec, index) == controller_state(reference), \
            f"scenario {index}"
    for run, config in zip(runs, configs):
        assert run.controller.system is None
        assert controller_state(run.controller) == controller_state(
            SmartDPSS(config))


def test_end_slot_extremes_without_planning():
    """`end_slot` observations alone set the battery queue's extremes.

    Drives the controllers without ever planning (no coarse boundary),
    so the battery queue's extremes come from ``end_slot`` only.
    """
    import types

    config = paper_controller_config()
    scalar = SmartDPSS(config)
    vec = VecSmartDPSS([SmartDPSS(config)])
    system = paper_system_config(days=1)
    scalar.begin_horizon(system)
    vec.begin_horizon([system])
    before = vector_state(vec, 0)
    assert before["x_queue"] == scalar.battery_queue.state()

    for level, served in ((0.4, 0.2), (0.9, 0.0), (0.1, 0.5)):
        scalar.end_slot(types.SimpleNamespace(
            fine_slot=0, served_dt=served, served_ds=0.0,
            unserved_ds=0.0, charge=0.0, discharge=0.0, waste=0.0,
            battery_level=level, backlog=1.0, had_backlog=True))
        vec.end_slot(types.SimpleNamespace(
            had_backlog=np.array([True]),
            served_dt=np.array([served]),
            battery_level=np.array([level])))
    after = vector_state(vec, 0)
    assert after["x_queue"] == scalar.battery_queue.state()
    assert (after["x_queue"]["min_seen"], after["x_queue"]["max_seen"]) \
        == scalar.battery_queue.extremes
    assert after["y_queue"] == scalar.delay_queue.state()
