"""Shared fixtures for the test suite.

Small horizons keep unit/integration tests fast: most use a 4-7 day
system (96-168 fine slots) which exercises multiple coarse slots while
running in milliseconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.control import SmartDPSSConfig
from repro.config.presets import paper_controller_config, paper_system_config
from repro.config.system import SystemConfig
from repro.traces.base import TraceSet
from repro.traces.library import make_paper_traces


@pytest.fixture
def small_system() -> SystemConfig:
    """A 4-day paper system (96 hourly slots, T=24)."""
    return paper_system_config(days=4)


@pytest.fixture
def week_system() -> SystemConfig:
    """A 7-day paper system (168 hourly slots, T=24)."""
    return paper_system_config(days=7)


@pytest.fixture
def paper_system() -> SystemConfig:
    """The full 31-day paper system."""
    return paper_system_config()


@pytest.fixture
def small_traces(small_system) -> TraceSet:
    """Synthetic traces matching the 4-day system."""
    return make_paper_traces(small_system, seed=123)


@pytest.fixture
def week_traces(week_system) -> TraceSet:
    """Synthetic traces matching the 7-day system."""
    return make_paper_traces(week_system, seed=123)


@pytest.fixture
def controller_config() -> SmartDPSSConfig:
    """The paper's default controller configuration (V=1, ε=0.5)."""
    return paper_controller_config()


def constant_traces(n_slots: int,
                    demand_ds: float = 1.0,
                    demand_dt: float = 0.3,
                    renewable: float = 0.2,
                    price_rt: float = 50.0,
                    price_lt: float = 40.0) -> TraceSet:
    """Deterministic flat traces for hand-checkable scenarios."""
    ones = np.ones(n_slots)
    return TraceSet(
        demand_ds=ones * demand_ds,
        demand_dt=ones * demand_dt,
        renewable=ones * renewable,
        price_rt=ones * price_rt,
        price_lt_hourly=ones * price_lt,
        meta={"source": "constant"},
    )


def streamed_results(runs, controller=None, chunk_coarse: int = 4):
    """Per-slot results of the batch engine, one per run.

    ``runs`` are :class:`~repro.fleet.engine.StreamRunSpec` s.  The
    engine's slot loop feeds a
    :class:`~repro.sim.vecstate.BatchRecorder`, so every series is
    there slot by slot, as a scalar
    :class:`~repro.sim.engine.Simulator` result holds it; the delay
    ledger is replayed from the recorded service against the true
    arrivals.
    """
    from repro.fleet.engine import StreamingBatchSimulator
    from repro.sim.results import SimulationResult
    from repro.sim.vecstate import BatchRecorder, replay_delay_stats

    simulator = StreamingBatchSimulator(runs, controller,
                                        chunk_coarse=chunk_coarse)
    n_slots = simulator._n_slots
    state = simulator._stream(BatchRecorder(len(simulator.runs), n_slots))
    recorder = state.recorder
    served_dt = recorder.series("served_dt")
    return [
        SimulationResult(
            controller_name=simulator.controller.names[index],
            system=run.system,
            series=recorder.scenario_dict(index),
            delay_stats=replay_delay_stats(
                served_dt[index],
                run.stream.materialize().demand_dt[:n_slots]),
            battery_operations=int(state.cycles.operations[index]),
            lt_energy=float(state.lt_ledger.energy[index]),
            rt_energy=float(state.rt_ledger.energy[index]))
        for index, run in enumerate(simulator.runs)]
