"""Equivalence gate for the batch engine's preallocated slot kernels.

The contract, pinned exactly (``==`` on every float, no tolerance):

    scalar engine  ==  batch engine (workspace kernels)

across SmartDPSS configurations (both objective modes, market/battery
opt-outs, both shift modes), scalar baseline controllers driven
through :class:`~repro.sim.batch.ScalarControllerBatch`, and the
streamed engine's chunk boundaries.  A tracemalloc guard then pins the
workspace property itself: the slot loop's per-slot allocation
footprint must stay near zero, so a future edit that quietly
reintroduces per-slot temporaries fails here rather than in a
benchmark.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.baselines.impatient import ImpatientController
from repro.baselines.myopic import MyopicPriceThreshold
from repro.config.presets import paper_controller_config, paper_system_config
from repro.core.smartdpss import SmartDPSS
from repro.fleet.engine import ScenarioMetrics, StreamingBatchSimulator
from repro.fleet.spec import ScenarioSpec
from repro.sim.batch import BatchSimulator, RunSpec
from repro.sim.engine import Simulator
from repro.sim.recorder import SERIES_NAMES
from repro.traces.library import make_paper_traces

pytestmark = pytest.mark.equivalence


def _assert_results_identical(lhs, rhs, label: str) -> None:
    assert len(lhs) == len(rhs)
    for index, (a, b) in enumerate(zip(lhs, rhs)):
        for name in SERIES_NAMES:
            assert np.array_equal(a.series[name], b.series[name]), \
                f"{label}: scenario {index} series {name!r} differs"
        assert a.delay_stats == b.delay_stats, (label, index)
        assert a.battery_operations == b.battery_operations
        assert a.lt_energy == b.lt_energy
        assert a.rt_energy == b.rt_energy


def _smartdpss_runs(mode: str) -> list[RunSpec]:
    """A mixed-config SmartDPSS fleet with every planning branch."""
    system = paper_system_config(days=3)
    runs = []
    for index, v in enumerate(np.geomspace(0.05, 5.0, 7)):
        config = paper_controller_config(
            v=float(v),
            objective_mode=mode,
            use_long_term_market=index % 3 != 1,
            use_battery=index % 4 != 2,
        )
        if index % 2:
            config = config.replace(battery_shift_mode="paper")
        runs.append(RunSpec(
            system=system,
            controller=SmartDPSS(config),
            traces=make_paper_traces(system, seed=100 + index)))
    return runs


def _baseline_runs() -> list[RunSpec]:
    """Scalar controllers exercising the engine's adapter path."""
    system = paper_system_config(days=3)
    runs = []
    for index in range(5):
        if index % 2:
            controller = ImpatientController()
        else:
            controller = MyopicPriceThreshold(
                serve_quantile=0.2 + 0.1 * index)
        runs.append(RunSpec(
            system=system,
            controller=controller,
            traces=make_paper_traces(system, seed=200 + index)))
    return runs


@pytest.mark.parametrize("family", ["derived", "paper", "baselines"])
def test_batch_bit_exact_to_scalar(family):
    """scalar engine == batch engine, exactly."""
    def build():
        if family == "baselines":
            return _baseline_runs()
        return _smartdpss_runs(family)

    scalar = [Simulator(run.system, run.controller, run.traces).run()
              for run in build()]
    batch = BatchSimulator(build()).run()
    _assert_results_identical(scalar, batch, f"{family}: scalar/batch")


def _streamed_specs() -> list[ScenarioSpec]:
    specs = []
    for index, v in enumerate(np.geomspace(0.1, 3.0, 6)):
        specs.append(ScenarioSpec(
            seed=300 + index,
            system={"days": 2, "fine_slots_per_coarse": 6},
            controller={
                "kind": "smartdpss",
                "v": float(v),
                "use_long_term_market": index % 3 != 1,
                "use_battery": index % 4 != 2,
            }))
    return specs


def _streamed_metrics(chunk_coarse: int) -> list[dict]:
    from repro.fleet.engine import StreamRunSpec

    runs = []
    for spec in _streamed_specs():
        system = spec.build_system()
        runs.append(StreamRunSpec(
            system=system,
            controller=spec.build_controller(),
            stream=spec.open_stream(system)))
    return ScenarioMetrics.rows(
        StreamingBatchSimulator(runs, chunk_coarse=chunk_coarse).run())


@pytest.mark.fleet
@pytest.mark.parametrize("chunk_coarse", [1, 3, 8])
def test_streamed_bit_exact_across_chunkings(chunk_coarse):
    """Every streamed chunk size == one full window.

    The 2-day horizon at T=6 spans 8 coarse slots, so
    ``chunk_coarse=8`` is the single-window reference; the workspaces
    persist across chunk boundaries, and metrics records compare
    exactly (dataclass ``==`` over floats).
    """
    reference = _streamed_metrics(chunk_coarse=8)
    assert _streamed_metrics(chunk_coarse) == reference


# ----------------------------------------------------------------------
# Allocation regression guard
# ----------------------------------------------------------------------


def _slot_loop_footprint() -> tuple[int, int, int]:
    """(slots, peak traced bytes, surviving allocations) of the loop.

    The simulator, controller and workspaces are built *before*
    tracing starts, and the measured window covers only pure fine
    slots (the coarse-boundary planning pass — which legitimately
    allocates — is warmed through first), so the figures isolate what
    the per-slot hot path itself allocates.
    """
    system = paper_system_config(days=3)
    configs = [paper_controller_config(v=float(v))
               for v in np.geomspace(0.1, 2.0, 64)]
    runs = [RunSpec(system=system, controller=SmartDPSS(config),
                    traces=make_paper_traces(system, seed=seed))
            for seed, config in enumerate(configs)]
    simulator = BatchSimulator(runs)
    state = simulator._begin_run()
    t_slots = simulator._t_slots
    # Warm through the second coarse boundary so the measured window
    # [t_slots + 1, 2 * t_slots) contains no planning call.
    for slot in range(t_slots + 1):
        simulator._advance_slot(slot, state)
    slots = t_slots - 1

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        for slot in range(t_slots + 1, t_slots + 1 + slots):
            simulator._advance_slot(slot, state)
        peak = tracemalloc.get_traced_memory()[1] - start
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    survivors = sum(
        max(stat.count_diff, 0)
        for stat in after.compare_to(before, "lineno")
        if stat.traceback[0].filename.find("repro") != -1)
    return slots, peak, survivors


@pytest.mark.slow
def test_slot_loop_allocation_guard():
    """The slot loop allocates ~nothing per slot.

    Two pins on a 64-scenario batch: the peak transient footprint stays
    under 64 KiB (one (17, B) float tensor alone is 8.5 KiB; the
    loop's transients are dataclass shells and views), and surviving
    allocations (a leak signal) stay near zero per slot.
    """
    slots, peak, survivors = _slot_loop_footprint()
    assert peak < 64 * 1024, peak
    assert survivors <= 8 * slots, survivors
