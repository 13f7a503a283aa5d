"""Unit pack for the streamed observation layer.

Pins the contracts :mod:`repro.fleet.observe` promises:

* every model is **chunk-invariant** — feeding the horizon window by
  window through one observer reproduces the single-chunk output
  bit-identically, including mid-chunk carry handoff;
* the sensor-fault models degrade gracefully (dropout holds the last
  good reading, the power-on sample latches) instead of surfacing
  gaps;
* the ``ScenarioSpec.observation`` axis serializes, hashes and
  validates like every other spec axis — and its *absence* leaves
  pre-observation spec hashes untouched;
* :class:`~repro.exceptions.ObservationCorruptionError` survives the
  process boundary and quarantines as a trace corruption.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    ObservationCorruptionError,
    TraceCorruptionError,
)
from repro.fleet.engine import StreamingBatchSimulator, StreamRunSpec
from repro.fleet.observe import (
    OBSERVATION_KINDS,
    OBSERVE_SERIES,
    BatchObserver,
    BiasDrift,
    DelayedReport,
    ObservationSpec,
    SensorDropout,
    StuckSensor,
    UniformNoise,
    observation_from_mapping,
)
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import ScenarioSpec
from repro.rng import make_rng

pytestmark = [pytest.mark.fleet, pytest.mark.noise]

MODELS = [
    UniformNoise(rel_error=0.4),
    SensorDropout(rate=0.35),
    StuckSensor(rate=0.25, duration=3),
    BiasDrift(sigma=0.05),
    DelayedReport(slots=2),
]


def _true_series(n: int = 24, seed: int = 5) -> np.ndarray:
    """A positive synthetic series (drawn via the blessed RNG seam)."""
    return 1.0 + make_rng(seed, "test:observe-series").random(n)


def _apply_chunked(spec: ObservationSpec, true: np.ndarray,
                   chunk: int, name: str = "demand_ds") -> np.ndarray:
    observer = spec.open()
    parts = [observer.observe_series(name, true[i:i + chunk])
             for i in range(0, true.size, chunk)]
    return np.concatenate(parts)


class TestChunkInvariance:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("chunk", [1, 3, 7, 8])
    def test_chunked_equals_single_chunk(self, model, chunk):
        spec = ObservationSpec(model=model, seed=11)
        true = _true_series(24)
        reference = spec.open().observe_series("demand_ds", true)
        chunked = _apply_chunked(spec, true, chunk)
        # chunk=7 leaves a 3-slot tail, so carry hands off mid-stride.
        assert np.array_equal(chunked, reference)

    def test_series_substreams_are_independent(self):
        spec = ObservationSpec(model=UniformNoise(rel_error=0.4), seed=3)
        true = _true_series(16)
        observer = spec.open()
        a = observer.observe_series("demand_ds", true)
        b = observer.observe_series("renewable", true)
        assert not np.array_equal(a, b)

    def test_replayed_spec_is_deterministic(self):
        spec = ObservationSpec(model=BiasDrift(sigma=0.1), seed=9)
        true = _true_series(12)
        first = spec.open().observe_series("price_rt", true)
        second = spec.open().observe_series("price_rt", true)
        assert np.array_equal(first, second)


class _ScriptedRng:
    """A stand-in generator replaying scripted uniform draws."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self, n):
        out = np.asarray([self._draws.pop(0) for _ in range(n)])
        return out


class TestModelSemantics:
    def test_uniform_zero_error_is_bitwise_identity(self):
        spec = ObservationSpec(model=UniformNoise(rel_error=0.0), seed=1)
        true = _true_series(10)
        assert np.array_equal(
            spec.open().observe_series("demand_dt", true), true)

    def test_dropout_holds_last_good_and_latches_first(self):
        model = SensorDropout(rate=0.5)
        state = model.init_state()
        true = np.array([10.0, 20.0, 30.0, 40.0])
        # A draw below the rate loses that slot: 0, 2 and 3 drop.
        rng = _ScriptedRng([0.1, 0.9, 0.1, 0.1])
        observed = model.perturb_chunk(true, rng, state)
        # Leading dropout reports the power-on latch true[0]; later
        # dropouts hold the most recent good reading.
        assert observed.tolist() == [10.0, 20.0, 20.0, 20.0]
        rng = _ScriptedRng([0.1, 0.1])  # both lost in the next chunk
        held = model.perturb_chunk(np.array([50.0, 60.0]), rng, state)
        assert held.tolist() == [20.0, 20.0]

    def test_stuck_repeats_previous_report_for_duration(self):
        model = StuckSensor(rate=0.5, duration=2)
        state = model.init_state()
        true = np.array([1.0, 2.0, 3.0, 4.0])
        rng = _ScriptedRng([0.9, 0.1, 0.9, 0.9])
        observed = model.perturb_chunk(true, rng, state)
        # Slot 1 sticks at the previous report (1.0) for 2 slots.
        assert observed.tolist() == [1.0, 1.0, 1.0, 4.0]

    def test_delay_shifts_and_backfills_power_on_value(self):
        model = DelayedReport(slots=2)
        state = model.init_state()
        first = model.perturb_chunk(np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                                    _ScriptedRng([]), state)
        assert first.tolist() == [1.0, 1.0, 1.0, 2.0, 3.0]
        second = model.perturb_chunk(np.array([6.0, 7.0]),
                                     _ScriptedRng([]), state)
        assert second.tolist() == [4.0, 5.0]

    def test_bias_drift_zero_sigma_is_bitwise_identity(self):
        spec = ObservationSpec(model=BiasDrift(sigma=0.0), seed=2)
        true = _true_series(8)
        assert np.array_equal(
            spec.open().observe_series("renewable", true), true)

    def test_price_series_clipped_at_market_cap(self):
        spec = ObservationSpec(model=UniformNoise(rel_error=0.9),
                               seed=4, price_cap=1.0)
        true = 10.0 * _true_series(32)
        observed = spec.open().observe_series("price_rt", true)
        assert observed.max() <= 1.0
        uncapped = spec.open().observe_series("demand_ds", true)
        assert uncapped.max() > 1.0

    @pytest.mark.parametrize("build", [
        lambda: UniformNoise(rel_error=1.5),
        lambda: UniformNoise(rel_error=-0.1),
        lambda: SensorDropout(rate=1.0),
        lambda: StuckSensor(rate=0.2, duration=0),
        lambda: StuckSensor(rate=2.0, duration=2),
        lambda: BiasDrift(sigma=-1.0),
        lambda: DelayedReport(slots=-1),
        lambda: BiasDrift(sigma=np.nan),
        lambda: BiasDrift(sigma=np.inf),
        lambda: StuckSensor(rate=0.2, duration=np.nan),
        lambda: StuckSensor(rate=0.2, duration=np.inf),
        lambda: DelayedReport(slots=np.nan),
        lambda: DelayedReport(slots=np.inf),
    ])
    def test_model_parameter_validation(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_runner_rejects_bad_robustness_model_at_construction(self):
        """A bad robustness model fails the runner up front, not as a
        failing attempt of every shard that quarantines the fleet."""
        specs = [ScenarioSpec(
            system={"preset": "paper", "days": 1,
                    "fine_slots_per_coarse": 6},
            controller={"kind": "smartdpss"},
            trace={"kind": "stream"})]
        with pytest.raises(ConfigurationError, match="sigma"):
            FleetRunner(specs, robustness={"kind": "bias_drift",
                                           "sigma": np.nan})


class TestObservationSpec:
    def test_mapping_builds_model_and_metadata(self):
        spec = observation_from_mapping(
            {"kind": "uniform", "rel_error": 0.3}, default_seed=7)
        assert spec.seed == 7
        assert spec.rel_error == 0.3
        # Record metadata names the model and its full parameter set.
        assert spec.describe() == {"model": "uniform", "seed": 7,
                                   "rel_error": 0.3}

    def test_explicit_seed_overrides_default(self):
        spec = observation_from_mapping(
            {"kind": "delay", "slots": 1, "seed": 99}, default_seed=7)
        assert spec.seed == 99

    @pytest.mark.parametrize("mapping, match", [
        ({"kind": "gaussian"}, "unknown observation kind"),
        ({"kind": "uniform", "rel_error": 0.1, "mean": 0.0},
         "unknown 'uniform' observation parameters"),
        ({"kind": "stuck", "rate": 0.1}, "missing parameters"),
        ({}, "unknown observation kind"),
    ])
    def test_mapping_validation(self, mapping, match):
        with pytest.raises(ConfigurationError, match=match):
            observation_from_mapping(mapping, default_seed=0)

    def test_registry_covers_every_model(self):
        assert sorted(OBSERVATION_KINDS) == sorted(
            m.kind for m in MODELS)

    def test_observed_traces_stamps_metadata(self):
        template = ScenarioSpec(
            system={"preset": "paper", "days": 1,
                    "fine_slots_per_coarse": 6},
            controller={"kind": "smartdpss"},
            trace={"kind": "stream"},
            observation={"kind": "uniform", "rel_error": 0.2})
        system = template.build_system()
        traces = template.build_traces(system)
        observation = template.build_observation(system)
        assert observation.price_cap == system.p_max
        observed = observation.observed_traces(traces)
        assert observed.meta["observation"]["model"] == "uniform"
        assert observed.meta["observation_rel_error"] == 0.2
        assert not np.array_equal(observed.demand_ds, traces.demand_ds)

    def test_batch_observer_aliases_when_disabled(self):
        block = np.ones((3, 4))
        quiet = BatchObserver([None, None, None])
        assert quiet.observe_matrix("demand_ds", block) is block
        spec = ObservationSpec(model=UniformNoise(rel_error=0.4), seed=1)
        mixed = BatchObserver([None, spec, None])
        observed = mixed.observe_matrix("demand_ds", block)
        assert observed is not block
        assert np.array_equal(observed[0], block[0])
        assert np.array_equal(observed[2], block[2])
        assert not np.array_equal(observed[1], block[1])


class TestSpecAxis:
    def _template(self, observation=None):
        return ScenarioSpec(
            system={"preset": "paper", "days": 1,
                    "fine_slots_per_coarse": 6},
            controller={"kind": "smartdpss"},
            trace={"kind": "stream"},
            observation=observation)

    def test_absent_axis_is_not_serialized(self):
        spec = self._template()
        assert "observation" not in spec.to_dict()
        assert spec.build_observation() is None

    def test_axis_round_trips_and_changes_hash(self):
        noisy = self._template({"kind": "dropout", "rate": 0.25})
        clean = self._template()
        assert ScenarioSpec.from_dict(noisy.to_dict()) == noisy
        assert noisy.spec_hash() != clean.spec_hash()
        assert noisy.to_dict()["observation"] == {
            "kind": "dropout", "rate": 0.25}

    def test_build_observation_defaults_seed_to_spec_seed(self):
        spec = self._template({"kind": "uniform", "rel_error": 0.1})
        observation = spec.build_observation()
        assert observation.seed == spec.seed

    def test_invalid_axis_fails_at_build(self):
        spec = self._template({"kind": "nope"})
        with pytest.raises(ConfigurationError, match="observation kind"):
            spec.build_observation()


class TestCorruptionError:
    def test_is_a_trace_corruption_and_pickles(self):
        error = ObservationCorruptionError(
            "non-finite value in observed trace series 'price_rt'",
            scenario=3, slot=17, seed=42, series="price_rt",
            view="observed")
        assert isinstance(error, TraceCorruptionError)
        clone = pickle.loads(pickle.dumps(error))
        assert clone.scenario == 3
        assert clone.slot == 17
        assert clone.seed == 42
        assert clone.series == "price_rt"
        assert clone.view == "observed"

    def test_observed_price_lt_reports_its_fine_slot(self, monkeypatch):
        """A bad observed long-term price names the first fine slot of
        its coarse slot: the price block has one column per coarse
        slot, not per fine slot."""
        calls = []
        observe = BatchObserver.observe_matrix

        def poisoned(self, name, true):
            observed = np.array(observe(self, name, true))
            if name == "price_lt":
                calls.append(true.shape)
                if len(calls) == 2:  # chunk 1: fine slots 24..47
                    observed[1, 6] = np.nan  # fine slot 30, coarse 5
            return observed

        monkeypatch.setattr(BatchObserver, "observe_matrix", poisoned)
        runs = []
        for seed in (0, 1):
            spec = ScenarioSpec(
                seed=seed,
                system={"preset": "paper", "days": 2,
                        "fine_slots_per_coarse": 6},
                controller={"kind": "smartdpss"},
                trace={"kind": "stream"},
                observation={"kind": "uniform", "rel_error": 0.1})
            system = spec.build_system()
            runs.append(StreamRunSpec(
                system=system, controller=spec.build_controller(),
                stream=spec.open_stream(system),
                observation=spec.build_observation(system)))
        with pytest.raises(ObservationCorruptionError) as caught:
            StreamingBatchSimulator(runs, chunk_coarse=4).run()
        assert calls == [(2, 24), (2, 24)]
        assert caught.value.series == "price_lt"
        assert caught.value.slot == 30
        assert caught.value.scenario == 1


class TestGracefulDegradation:
    def test_dropout_fleet_completes_with_finite_metrics(self):
        specs = [ScenarioSpec(
            name="degraded", value=1.0, seed=seed,
            system={"preset": "paper", "days": 1,
                    "fine_slots_per_coarse": 6},
            controller={"kind": "smartdpss"},
            trace={"kind": "stream"},
            observation={"kind": "dropout", "rate": 0.5})
            for seed in (0, 1)]
        records = FleetRunner(specs, batch_size=4).run()
        for record in records:
            assert record["observation"]["model"] == "dropout"
            assert np.isfinite(record["metrics"]["time_avg_cost"])
