"""Equivalence gate for the streamed observation layer.

The contract under test: feeding the streamed engine chunked
observations (``StreamRunSpec.observation``) is **exactly** equal —
``==`` on every metric float — to the scalar ``Simulator`` given
``observed=ObservationSpec.observed_traces(traces)`` on the
materialized horizon, for every observation model and every chunk size
(including chunkings that force mid-chunk carry handoff).  And with no model armed, the
observation layer is invisible: records are bit-identical to an
unarmed run.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from oracles.engine import metrics_from_result
from repro.fleet.engine import (
    ScenarioMetrics,
    StreamingBatchSimulator,
    StreamRunSpec,
)
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import ScenarioSpec
from repro.sim.engine import Simulator

pytestmark = [pytest.mark.noise, pytest.mark.equivalence,
              pytest.mark.fleet]

MODEL_MAPPINGS = {
    "uniform": {"kind": "uniform", "rel_error": 0.4},
    "dropout": {"kind": "dropout", "rate": 0.3},
    "stuck": {"kind": "stuck", "rate": 0.2, "duration": 2},
    "bias_drift": {"kind": "bias_drift", "sigma": 0.05},
    "delay": {"kind": "delay", "slots": 3},
}


def _spec(observation, seed: int = 7, days: int = 1,
          v: float | None = None) -> ScenarioSpec:
    controller = {"kind": "smartdpss"}
    if v is not None:
        controller["v"] = v
    return ScenarioSpec(
        name="noise-eq", value=float(v or 1.0), seed=seed,
        system={"preset": "paper", "days": days,
                "fine_slots_per_coarse": 6},
        controller=controller,
        trace={"kind": "stream"},
        observation=observation)


def run_streamed(specs: list[ScenarioSpec],
                 chunk_coarse: int) -> list[dict]:
    runs = []
    for spec in specs:
        system = spec.build_system()
        runs.append(StreamRunSpec(
            system=system, controller=spec.build_controller(),
            stream=spec.open_stream(system),
            observation=spec.build_observation(system)))
    return ScenarioMetrics.rows(
        StreamingBatchSimulator(runs, chunk_coarse=chunk_coarse).run())


def run_reference(specs: list[ScenarioSpec]) -> list[dict]:
    """Scalar reference: materialized traces, observed whole."""
    metrics = []
    for spec in specs:
        system = spec.build_system()
        traces = spec.open_stream(system).materialize()
        observation = spec.build_observation(system)
        observed = None if observation is None \
            else observation.observed_traces(traces)
        result = Simulator(system, spec.build_controller(traces), traces,
                           observed=observed).run()
        metrics.append(
            metrics_from_result(result, seed=spec.seed).as_dict())
    return metrics


def assert_metrics_identical(streamed, reference, context=""):
    for index, (got, want) in enumerate(zip(streamed, reference)):
        for key, value in want.items():
            actual = got[key]
            assert actual == value, (
                f"{context}scenario {index}: metric {key!r} diverged: "
                f"streamed {actual!r} != scalar {value!r}")


@pytest.mark.parametrize("chunk_coarse", [1, 3, 8])
@pytest.mark.parametrize("kind", sorted(MODEL_MAPPINGS))
def test_streamed_observation_matches_in_memory(kind, chunk_coarse):
    specs = [_spec(MODEL_MAPPINGS[kind], seed=seed) for seed in (0, 1)]
    streamed = run_streamed(specs, chunk_coarse)
    reference = run_reference(specs)
    assert_metrics_identical(streamed, reference, f"{kind}: ")


@pytest.mark.parametrize("chunk_coarse", [1, 3])
def test_mixed_batch_rows_observe_independently(chunk_coarse):
    """Observed and clean rows of one batch each match their reference."""
    specs = [_spec(MODEL_MAPPINGS["uniform"], seed=0),
             _spec(None, seed=0),
             _spec(MODEL_MAPPINGS["delay"], seed=1)]
    streamed = run_streamed(specs, chunk_coarse)
    reference = run_reference(specs)
    assert_metrics_identical(streamed, reference, "mixed: ")
    # The clean row really is clean: identical to a fully unarmed run.
    (clean,) = run_streamed([_spec(None, seed=0)], chunk_coarse)
    assert clean == streamed[1]


@settings(max_examples=15, deadline=None)
@given(rel_error=st.floats(min_value=0.0, max_value=0.9,
                           allow_nan=False),
       seed=st.integers(min_value=0, max_value=2**20),
       chunk_coarse=st.sampled_from([1, 3, 8]),
       v=st.floats(min_value=0.05, max_value=5.0, allow_nan=False))
def test_uniform_noise_bit_identity_hypothesis(rel_error, seed,
                                               chunk_coarse, v):
    specs = [_spec({"kind": "uniform", "rel_error": rel_error},
                   seed=seed, v=v)]
    streamed = run_streamed(specs, chunk_coarse)
    reference = run_reference(specs)
    assert_metrics_identical(streamed, reference,
                             f"rel={rel_error} chunk={chunk_coarse}: ")


def test_armed_quiet_uniform_is_bit_identical_to_unarmed():
    """rel_error=0 draws noise but perturbs nothing — records equal."""
    quiet = [_spec({"kind": "uniform", "rel_error": 0.0}, seed=seed)
             for seed in (0, 1)]
    unarmed = [_spec(None, seed=seed) for seed in (0, 1)]
    for chunk_coarse in (1, 3):
        assert_metrics_identical(run_streamed(quiet, chunk_coarse),
                                 run_streamed(unarmed, chunk_coarse),
                                 "armed-quiet: ")


def test_robustness_gap_matches_hand_paired_runs():
    """FleetRunner(robustness=...) == running the noisy twin by hand."""
    spec = _spec(None, seed=3)
    records = FleetRunner([spec], robustness=0.4, batch_size=4).run()
    (record,) = records
    clean = record["metrics"]["time_avg_cost"]
    noisy = record["metrics"]["noisy_cost"]
    # The twin: same spec with the robustness model as its observation
    # axis (noise seeded from the scenario seed, like the runner does).
    twin = _spec({"kind": "uniform", "rel_error": 0.4}, seed=3)
    (twin_metrics,) = run_streamed([twin], chunk_coarse=4)
    (clean_metrics,) = run_streamed([spec], chunk_coarse=4)
    assert clean == clean_metrics["time_avg_cost"]
    assert noisy == twin_metrics["time_avg_cost"]
    expected_gap = (noisy - clean) / abs(clean)
    assert record["metrics"]["robustness_gap"] == expected_gap
