"""Equivalence gate for the streamed fleet path.

Three layers, mirroring the contract in :mod:`repro.fleet.engine`:

1. **Stream chunk invariance** — a ``StreamingPaperTraces`` horizon is
   bit-identical however it is chunked (including one full-horizon
   window), so "streamed traces" and "materialized traces" denote the
   same numbers.
2. **Engine equivalence** — ``StreamingBatchSimulator`` metrics are
   *exactly* equal (``==`` on every float) to
   ``ScenarioMetrics.from_result`` of the in-memory
   ``BatchSimulator`` run on the materialized traces, across chunk
   sizes, controller families and hypothesis-generated configurations.
3. **Runner equivalence** — ``FleetRunner`` returns identical records
   whether shards run in-process or on a process pool.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config.presets import paper_controller_config, paper_system_config
from repro.core.smartdpss import SmartDPSS
from repro.fleet.engine import (
    ScenarioMetrics,
    StreamingBatchSimulator,
    StreamRunSpec,
)
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import ScenarioSpec, grid_specs
from repro.fleet.stream import StreamingPaperTraces
from repro.sim.batch import BatchSimulator, RunSpec

pytestmark = [pytest.mark.equivalence, pytest.mark.fleet]

TRACE_FIELDS = ("demand_ds", "demand_dt", "renewable", "price_rt",
                "price_lt_hourly")


# ----------------------------------------------------------------------
# 1. Stream chunk invariance
# ----------------------------------------------------------------------


@pytest.mark.parametrize("chunk_slots", [1, 5, 24, 96])
def test_stream_materialization_is_chunk_invariant(chunk_slots):
    system = paper_system_config(days=4)
    stream = StreamingPaperTraces(system.horizon_slots, seed=7,
                                  clip_p_grid=system.p_grid)
    reference = stream.materialize(chunk_slots=system.horizon_slots)
    chunked = stream.materialize(chunk_slots=chunk_slots)
    for name in TRACE_FIELDS:
        assert np.array_equal(getattr(reference, name),
                              getattr(chunked, name)), name


def test_stream_windows_partition_the_horizon():
    stream = StreamingPaperTraces(48, seed=3)
    windows = list(stream.windows(20))
    assert [w.n_slots for w in windows] == [20, 20, 8]
    glued = np.concatenate([w.demand_ds for w in windows])
    assert np.array_equal(glued, stream.materialize().demand_ds)


def test_stream_cursor_is_replayable():
    stream = StreamingPaperTraces(24, seed=11)
    first = stream.open().read(24)
    second = stream.open().read(24)
    for name in TRACE_FIELDS:
        assert np.array_equal(getattr(first, name), getattr(second, name))


# ----------------------------------------------------------------------
# 2. Streamed engine == in-memory engine
# ----------------------------------------------------------------------


def run_both_engines(specs: list[ScenarioSpec], chunk_coarse: int):
    """One fleet through both engines; returns (streamed, reference)."""
    stream_runs, memory_runs = [], []
    for spec in specs:
        system = spec.build_system()
        stream = spec.open_stream(system)
        stream_runs.append(StreamRunSpec(
            system=system, controller=spec.build_controller(),
            stream=stream))
        memory_runs.append(RunSpec(
            system=system, controller=spec.build_controller(),
            traces=stream.materialize()))
    streamed = ScenarioMetrics.rows(StreamingBatchSimulator(
        stream_runs, chunk_coarse=chunk_coarse).run())
    results = BatchSimulator(memory_runs).run()
    reference = [ScenarioMetrics.from_result(r, seed=spec.seed)
                 for spec, r in zip(specs, results)]
    return streamed, reference


def assert_metrics_identical(streamed, reference, context=""):
    for index, (got, want) in enumerate(zip(streamed, reference)):
        for key, value in want.as_dict().items():
            actual = got[key]
            assert actual == value, (
                f"{context}scenario {index}: metric {key!r} diverged: "
                f"streamed {actual!r} != in-memory {want.as_dict()[key]!r}")


@pytest.mark.parametrize("chunk_coarse", [1, 2, 5])
def test_streamed_smartdpss_fleet_matches_in_memory(chunk_coarse):
    template = ScenarioSpec(
        system={"preset": "paper", "days": 3,
                "fine_slots_per_coarse": 12},
        controller={"kind": "smartdpss"},
        trace={"kind": "stream"})
    specs = grid_specs(template, "controller.v",
                       [0.1, 1.0, 5.0], seeds=(0, 1))
    streamed, reference = run_both_engines(specs, chunk_coarse)
    assert_metrics_identical(streamed, reference)


def test_streamed_scalar_controllers_match_in_memory():
    """The scalar-adapter path (non-SmartDPSS policies) is gated too."""
    template = ScenarioSpec(
        system={"preset": "paper", "days": 2,
                "fine_slots_per_coarse": 8},
        trace={"kind": "stream"})
    specs = []
    for kind in ("impatient", "myopic"):
        for seed in (0, 1):
            data = template.to_dict()
            data["controller"] = {"kind": kind}
            data["seed"] = seed
            specs.append(ScenarioSpec.from_dict(data))
    for group in (specs[:2], specs[2:]):
        streamed, reference = run_both_engines(group, chunk_coarse=2)
        assert_metrics_identical(streamed, reference)


@settings(max_examples=15, deadline=None)
@given(
    t_slots=st.integers(2, 8),
    k_slots=st.integers(2, 5),
    chunk_coarse=st.integers(1, 6),
    v=st.floats(0.05, 5.0, allow_nan=False),
    epsilon=st.floats(0.1, 2.0, allow_nan=False),
    battery_minutes=st.sampled_from([0.0, 15.0, 30.0]),
    capacity_mw=st.floats(1.0, 6.0, allow_nan=False),
    mean_price=st.floats(30.0, 70.0, allow_nan=False),
    seeds=st.lists(st.integers(0, 10_000), min_size=2, max_size=4,
                   unique=True),
)
def test_streamed_fleet_matches_in_memory_hypothesis(
        t_slots, k_slots, chunk_coarse, v, epsilon, battery_minutes,
        capacity_mw, mean_price, seeds):
    """Random shapes, knobs and chunkings: streamed == in-memory."""
    days = max(1, (t_slots * k_slots) // 24 + 1)
    total = days * 24
    if total % t_slots != 0:
        t_slots = 6  # keep the horizon divisible
    template = ScenarioSpec(
        system={"preset": "paper", "days": days,
                "fine_slots_per_coarse": t_slots,
                "battery_minutes": battery_minutes},
        controller={"kind": "smartdpss", "v": v, "epsilon": epsilon},
        trace={"kind": "stream",
               "solar": {"capacity_mw": capacity_mw},
               "price": {"mean_price": mean_price}})
    specs = []
    for seed in seeds:
        data = template.to_dict()
        data["seed"] = seed
        specs.append(ScenarioSpec.from_dict(data))
    streamed, reference = run_both_engines(specs, chunk_coarse)
    assert_metrics_identical(streamed, reference)


def test_streamed_respects_cycle_budget_and_grid_capacity():
    """Budget cutoffs and outage masks survive the chunk boundary."""
    system = paper_system_config(days=2, fine_slots_per_coarse=6,
                                 cycle_budget=5)
    stream = StreamingPaperTraces(system.horizon_slots, seed=4,
                                  clip_p_grid=system.p_grid)
    capacity = np.full(system.horizon_slots, system.p_grid)
    capacity[10:14] = 0.0  # a 4-slot outage crossing a chunk boundary
    streamed = ScenarioMetrics.rows(StreamingBatchSimulator(
        [StreamRunSpec(system=system,
                       controller=SmartDPSS(paper_controller_config()),
                       stream=stream, grid_capacity=capacity)],
        chunk_coarse=2).run())
    result = BatchSimulator(
        [RunSpec(system=system,
                 controller=SmartDPSS(paper_controller_config()),
                 traces=stream.materialize(),
                 grid_capacity=capacity)]).run()[0]
    reference = ScenarioMetrics.from_result(result, seed=4)
    assert_metrics_identical(streamed, [reference])


# ----------------------------------------------------------------------
# 3. Runner equivalence
# ----------------------------------------------------------------------


def _fleet_records(max_workers):
    template = ScenarioSpec(
        system={"preset": "paper", "days": 1,
                "fine_slots_per_coarse": 6},
        trace={"kind": "stream"})
    specs = grid_specs(template, "controller.v",
                       [0.2, 1.0, 5.0], seeds=(0, 1, 2))
    return FleetRunner(specs, batch_size=4,
                       max_workers=max_workers).run()


def test_fleet_runner_process_pool_matches_in_process():
    serial = _fleet_records(max_workers=None)
    pooled = _fleet_records(max_workers=2)
    assert serial == pooled
