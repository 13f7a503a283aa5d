"""Derived passes pay only for their column.

A fleet shard's two derived passes — the offline-gap replay and the
robustness re-run — read one column each, ``time_avg_cost``.  This
pack pins the two shortcuts they take:

* **Observation twins share one noise lane.**  Rows of one engine pass
  on one trace lane with equal :class:`ObservationSpec`\\ s see
  bit-identical observed windows, so :class:`BatchObserver` mints
  substreams and perturbs once per distinct (lane, spec) and gathers
  the result back.  Every row must still see exactly what its own
  :meth:`ObservationSpec.open` observer sees, for every model and
  chunking, and twins must keep separate, writable rows.
* **Cost-only passes.**
  :meth:`StreamingBatchSimulator.time_avg_cost` equals
  ``run()["time_avg_cost"]`` bit for bit for every controller bundle
  the fleet runs, and a derived-column fleet's records do not depend
  on the batch size (at ``batch_size=1`` no twins exist).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.offline import (
    OfflineOptimal,
    OfflinePlanBatch,
    solve_offline_plan_batch,
)
from repro.core.smartdpss_vec import VecSmartDPSS
from repro.fleet import observe
from repro.fleet.engine import StreamingBatchSimulator, StreamRunSpec
from repro.fleet.observe import (
    OBSERVE_SERIES,
    BatchObserver,
    observation_from_mapping,
)
from repro.fleet.runner import DEFAULT_BATCH_SIZE, FleetRunner
from repro.fleet.spec import ScenarioSpec, grid_specs
from repro.fleet.stream import ArrayTraceStream
from repro.sim.batch import ScalarControllerBatch
from repro.traces.base import TraceBlock

pytestmark = [pytest.mark.fleet, pytest.mark.noise]

MODEL_MAPPINGS = {
    "uniform": {"kind": "uniform", "rel_error": 0.4},
    "dropout": {"kind": "dropout", "rate": 0.3},
    "stuck": {"kind": "stuck", "rate": 0.2, "duration": 2},
    "bias_drift": {"kind": "bias_drift", "sigma": 0.05},
    "delay": {"kind": "delay", "slots": 3},
}


def _spec(seed: int, kind: str = "smartdpss", days: int = 2,
          **controller) -> ScenarioSpec:
    return ScenarioSpec(
        name="derived", value=1.0, seed=seed,
        system={"preset": "paper", "days": days,
                "fine_slots_per_coarse": 6},
        controller={"kind": kind, **controller},
        trace={"kind": "stream"})


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@pytest.fixture
def minted(monkeypatch) -> list[int]:
    """Observation generators minted, one entry per seeding pass."""
    counts: list[int] = []
    original = observe.substream_rngs_batch

    def spy(roots, names):
        counts.append(len(roots) * len(names))
        return original(roots, names)

    monkeypatch.setattr(observe, "substream_rngs_batch", spy)
    return counts


class TestObservationTwins:
    @pytest.mark.parametrize("model", sorted(MODEL_MAPPINGS))
    @pytest.mark.parametrize("chunk_coarse", [1, 4])
    @pytest.mark.parametrize("quiet", [True, False],
                             ids=["quiet-row", "all-observed"])
    def test_observed_blocks_equal_per_row_observers(
            self, monkeypatch, minted, model, chunk_coarse, quiet):
        """Without the quiet row the uniform model takes the
        homogeneous fast path; with it, every model takes the generic
        one."""
        template = _spec(seed=3)
        system = template.build_system()
        lane_a = template.open_stream(system)
        lane_b = _spec(seed=4).open_stream(system)

        def noise(seed):
            return observation_from_mapping(
                MODEL_MAPPINGS[model], default_seed=seed,
                price_cap=system.p_max)

        layout = [
            (lane_a, noise(11), 0.2),  # twins: one lane, equal specs
            (lane_a, noise(11), 1.0),
            (lane_b, noise(11), 1.0),  # the same spec on another lane
            (lane_a, noise(12), 1.0),  # the same lane, another seed
            (lane_a, noise(11), 3.0),  # a third twin of row 0
        ]
        if quiet:
            layout.append((lane_a, None, 1.0))
        runs = [StreamRunSpec(
                    system=system,
                    controller=_spec(seed=3, v=v).build_controller(),
                    stream=stream, observation=observation)
                for stream, observation, v in layout]

        calls = []
        original = BatchObserver.observe_matrix

        def spy(self, name, true):
            observed = original(self, name, true)
            calls.append((name, true.copy(), observed))
            return observed

        monkeypatch.setattr(BatchObserver, "observe_matrix", spy)
        StreamingBatchSimulator(runs, chunk_coarse=chunk_coarse).run()

        n_chunks = system.horizon_slots // (
            chunk_coarse * system.fine_slots_per_coarse)
        assert len(calls) == len(OBSERVE_SERIES) * n_chunks
        # Three distinct (lane, spec) pairs, five series each.
        assert minted == [3 * len(OBSERVE_SERIES)]
        references = [None if observation is None else observation.open()
                      for _, observation, _ in layout]
        for name, true, observed in calls:
            assert observed.flags.writeable
            assert _bits_equal(true[0], true[1])
            for row, reference in enumerate(references):
                expected = (true[row] if reference is None
                            else reference.observe_series(name, true[row]))
                assert _bits_equal(observed[row], expected), (name, row)
            for twin in (1, 4):
                assert not np.shares_memory(observed[0], observed[twin])

    def test_robustness_pass_mints_one_noise_lane_per_seed(self, minted):
        """A 3-seed x 4-``V`` fleet's robustness pass: 12 rows on 3
        trace lanes with 3 distinct specs."""
        specs = grid_specs(_spec(seed=0, days=1), "controller.v",
                           [0.1, 0.5, 1.0, 3.0], seeds=range(3))
        records = FleetRunner(specs, robustness=0.2).run()
        assert all("noisy_cost" in record["metrics"] for record in records)
        assert minted == [3 * len(OBSERVE_SERIES)]


#: The controller bundle each cost-only case runs.
BUNDLES = {"smartdpss": VecSmartDPSS, "offline": OfflinePlanBatch,
           "impatient": ScalarControllerBatch}


def _cost_only_runs(kind: str, observation) -> tuple[list, object]:
    """Fresh runs on two seeds, each seed's runs twins on one trace
    lane, plus the controller bundle to pass (``None``: the engine's
    default)."""
    seeds = (5, 6)
    if kind == "impatient":
        specs = [_spec(seed, "impatient") for seed in seeds
                 for _ in range(2)]
    else:
        specs = [_spec(seed, v=v) for seed in seeds for v in (0.2, 2.0)]
    system = specs[0].build_system()
    streams = {spec.seed: spec.open_stream(system) for spec in specs}
    bundle = None
    if kind == "offline":
        sets = {seed: stream.materialize()
                for seed, stream in streams.items()}
        plans = dict(zip(sets, solve_offline_plan_batch(
            system, TraceBlock.from_tracesets(list(sets.values())))))
        streams = {seed: ArrayTraceStream(traces)
                   for seed, traces in sets.items()}
        controllers = [OfflineOptimal(None, plan=plans[spec.seed])
                       for spec in specs]
        bundle = OfflinePlanBatch([plans[spec.seed] for spec in specs])
    else:
        controllers = [spec.build_controller() for spec in specs]
    runs = [StreamRunSpec(
                system=system, controller=controller,
                stream=streams[spec.seed],
                observation=None if observation is None
                else observation_from_mapping(
                    observation, default_seed=spec.seed,
                    price_cap=system.p_max))
            for spec, controller in zip(specs, controllers)]
    return runs, bundle


class TestCostOnlyPass:
    @pytest.mark.parametrize("kind", ["smartdpss", "offline", "impatient"])
    @pytest.mark.parametrize("observation", [None, "uniform", "dropout"])
    @pytest.mark.parametrize("chunk_coarse", [1, 4])
    def test_equals_run_column(self, kind, observation, chunk_coarse):
        mapping = None if observation is None \
            else MODEL_MAPPINGS[observation]
        engines = []
        for _ in range(2):
            runs, bundle = _cost_only_runs(kind, mapping)
            engines.append(StreamingBatchSimulator(
                runs, controller=bundle, chunk_coarse=chunk_coarse))
        full, cost_only = engines
        assert type(cost_only.controller) is BUNDLES[kind]
        expected = full.run()["time_avg_cost"]
        assert _bits_equal(cost_only.time_avg_cost(), expected)

    @pytest.mark.offline
    def test_derived_fleet_records_independent_of_batch_size(self):
        """The tier-1 twin of perfbench's shard/chunk invariance check:
        at ``batch_size=1`` every pass is twin-free."""
        specs = grid_specs(_spec(seed=0, days=1), "controller.v",
                           [0.1, 1.0, 3.0], seeds=range(3))
        kwargs = {"offline_gap": True, "robustness": 0.2}
        shared = FleetRunner(specs, batch_size=DEFAULT_BATCH_SIZE,
                             **kwargs).run()
        alone = FleetRunner(specs, batch_size=1, **kwargs).run()
        assert all("offline_gap" in record["metrics"]
                   and "robustness_gap" in record["metrics"]
                   for record in shared)
        assert shared == alone
