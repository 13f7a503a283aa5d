"""Property-based tests: batch engine invariants.

Three invariants the vectorized backend must hold beyond plain
equivalence (tests/equivalence/): a batch of one is the scalar engine
*bit for bit*; results are a function of the scenario, not of its
position in the batch; and per-slot grid-outage capacity masks bind
identically in both engines.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.config.presets import paper_controller_config, paper_system_config
from repro.core.smartdpss import SmartDPSS
from repro.fleet.engine import StreamRunSpec
from repro.fleet.stream import ArrayTraceStream
from repro.rng import RngFactory
from repro.sim.engine import Simulator
from repro.sim.outages import sample_outages
from repro.sim.recorder import SERIES_NAMES
from repro.traces.library import make_paper_traces
from tests.conftest import streamed_results


def _assert_bitwise_equal(a, b, context: str = "") -> None:
    for name in SERIES_NAMES:
        assert np.array_equal(a.series[name], b.series[name]), (
            f"{context}series {name!r} not bit-identical")
    assert a.delay_stats.histogram == b.delay_stats.histogram, context
    assert a.battery_operations == b.battery_operations, context
    assert a.lt_energy == b.lt_energy, context
    assert a.rt_energy == b.rt_energy, context


def _spec(seed: int, v: float = 1.0, days: int = 3,
          grid_capacity=None) -> StreamRunSpec:
    system = paper_system_config(days=days)
    return StreamRunSpec(
        system=system,
        controller=SmartDPSS(paper_controller_config(v=v)),
        stream=ArrayTraceStream(make_paper_traces(system, seed=seed)),
        grid_capacity=grid_capacity)


def _scalar(spec: StreamRunSpec):
    """The scalar engine's run of ``spec``, on a fresh controller."""
    return Simulator(spec.system, SmartDPSS(spec.controller.config),
                     spec.stream.materialize(),
                     grid_capacity=spec.grid_capacity).run()


class TestBatchOfOne:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), v=st.floats(0.05, 5.0))
    def test_batch_of_one_is_scalar_bit_for_bit(self, seed, v):
        spec = _spec(seed, v=v)
        scalar = _scalar(spec)
        [batch] = streamed_results([spec])
        _assert_bitwise_equal(scalar, batch)


class TestPermutationInvariance:
    def test_results_do_not_depend_on_batch_position(self):
        specs = [_spec(seed, v=v)
                 for seed, v in [(1, 0.1), (2, 1.0), (3, 5.0),
                                 (4, 0.5), (5, 2.0)]]
        forward = streamed_results(specs)
        order = [3, 0, 4, 2, 1]
        permuted = streamed_results([specs[i] for i in order])
        for position, original in enumerate(order):
            _assert_bitwise_equal(
                forward[original], permuted[position],
                context=f"scenario {original}: ")


class TestOutageMasks:
    def test_grid_outage_capacity_binds_identically(self):
        system = paper_system_config(days=4)
        schedule = sample_outages(system.horizon_slots,
                                  RngFactory(11).stream("outages"),
                                  events_per_month=40,
                                  mean_duration_slots=6)
        capacity = schedule.grid_capacity(system.p_grid)
        assert float(capacity.min()) == 0.0  # outages actually occur
        specs = [_spec(seed, days=4, grid_capacity=capacity)
                 for seed in (7, 8, 9)]
        scalar = [_scalar(s) for s in specs]
        batch = streamed_results(specs)
        for index, (a, b) in enumerate(zip(scalar, batch)):
            _assert_bitwise_equal(a, b, context=f"scenario {index}: ")
            # The mask must actually clamp purchases in outage slots.
            outage_slots = capacity[:a.n_slots] == 0.0
            assert float(a.series["grt"][outage_slots].max(
                initial=0.0)) == 0.0
            assert float(a.series["gbef_rate"][outage_slots].max(
                initial=0.0)) == 0.0


class TestExecutorsAgree:
    def test_serial_and_batch_return_same_results(self):
        specs = [_spec(seed, v=v, days=2)
                 for seed, v in [(1, 0.5), (2, 1.0)]]
        serial = [_scalar(spec) for spec in specs]
        batch = streamed_results(specs)
        for a, b in zip(serial, batch):
            _assert_bitwise_equal(a, b)
