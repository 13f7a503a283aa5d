"""The package front doors export only names that exist."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module", ["repro", "repro.sim", "repro.fleet"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    missing = [name for name in package.__all__
               if not hasattr(package, name)]
    assert missing == []
    assert len(set(package.__all__)) == len(package.__all__)


def test_sim_has_no_batch_front_door():
    """Batches run on the one engine, ``StreamingBatchSimulator``;
    ``repro.sim`` keeps the scalar engine and the batch protocol."""
    import repro.sim

    for name in ("BatchSimulator", "RunSpec", "simulate_many", "Sweep"):
        assert name not in repro.sim.__all__
        assert not hasattr(repro.sim, name)


def test_user_controller_batches_through_stream_run_specs():
    """A user's own scalar ``Controller`` runs on the batch engine
    through ``StreamRunSpec``, exactly as on the scalar engine."""
    from oracles.engine import metrics_from_result
    from repro.baselines import ImpatientController
    from repro.config.presets import paper_system_config
    from repro.fleet import (
        ScenarioMetrics,
        StreamingBatchSimulator,
        StreamRunSpec,
    )
    from repro.fleet.stream import ArrayTraceStream
    from repro.sim import Simulator
    from repro.traces.library import make_paper_traces

    class Cautious(ImpatientController):
        @property
        def name(self) -> str:
            return "cautious"

    system = paper_system_config(days=2)
    traces = [make_paper_traces(system, seed=seed) for seed in (1, 2)]
    block = StreamingBatchSimulator([
        StreamRunSpec(system=system, controller=Cautious(),
                      stream=ArrayTraceStream(t)) for t in traces]).run()
    expected = [metrics_from_result(
        Simulator(system, Cautious(), t).run(), seed=seed).as_dict()
        for seed, t in zip((1, 2), traces)]
    assert ScenarioMetrics.rows(block) == expected
