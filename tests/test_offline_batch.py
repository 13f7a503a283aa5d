"""Batched offline-LP baseline: batch == scalar, fleet gap column.

The acceptance contract for the fleet-scale offline baseline:

* ``solve_offline_plan_batch`` returns, per scenario, the *same* plan
  as scalar ``solve_offline_plan`` — LP objectives within 1e-9 and
  plan arrays bit-identical (both dispatch through one compiled solve).
* Replaying the batched plans through the vectorized engine produces
  records identical to the scalar replay.
* The literal block-diagonal mega-solve agrees with the per-instance
  stamped solves on objectives (independent cross-check of the
  stamping logic).
* ``FleetRunner(offline_gap=True)`` adds ``offline_cost`` /
  ``offline_gap`` columns without disturbing the policy metrics, and
  solves one LP per distinct trace realization of a shard: trace twins
  get records identical to running alone.
* Without scipy's private HiGHS bindings the public ``linprog`` path
  reaches the same LP objectives, and the fleet column still fills.
"""

import numpy as np
import pytest

from oracles.block_lp import solve_block_diagonal
from oracles.engine import metrics_from_result
from repro.baselines.offline import (
    DEFAULT_DEADLINE_SLOTS,
    OfflineOptimal,
    OfflinePlanBatch,
    _get_structure,
    solve_offline_plan,
    solve_offline_plan_batch,
)
from repro.config.presets import paper_system_config
from repro.exceptions import ConfigurationError, SolverError, TraceError
from repro.fleet.engine import (
    ScenarioMetrics,
    StreamingBatchSimulator,
    StreamRunSpec,
)
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import ScenarioSpec, grid_specs
from repro.fleet.stream import ArrayTraceStream
from repro.sim.engine import Simulator
from repro.solvers import batch_lp
from repro.traces.base import TraceBlock
from repro.traces.library import make_paper_traces

pytestmark = pytest.mark.offline

PLAN_FIELDS = ("gbef", "grt", "sdt", "charge", "discharge", "waste",
               "battery", "backlog")


def _system(days: int = 1, t_slots: int = 6):
    return paper_system_config(days=days, fine_slots_per_coarse=t_slots)


def _sets_and_block(system, seeds):
    sets = [make_paper_traces(system, seed=seed) for seed in seeds]
    return sets, TraceBlock.from_tracesets(sets)


def _assert_plans_equal(scalar_plan, batch_plan):
    assert abs(scalar_plan.lp_objective
               - batch_plan.lp_objective) <= 1e-9
    for name in PLAN_FIELDS:
        assert np.array_equal(getattr(scalar_plan, name),
                              getattr(batch_plan, name)), name


class TestBatchScalarEquivalence:
    def test_plans_bitwise_identical(self):
        system = _system()
        sets, block = _sets_and_block(system, range(6))
        batch = solve_offline_plan_batch(system, block)
        for traces, batch_plan in zip(sets, batch):
            _assert_plans_equal(solve_offline_plan(system, traces),
                                batch_plan)

    def test_deadline_active_stamping(self):
        # deadline < n exercises the stamped deadline rows (cumulative
        # arrivals differ per scenario, so a stamping bug shows here).
        system = _system()
        deadline = 6
        sets, block = _sets_and_block(system, range(4))
        batch = solve_offline_plan_batch(system, block,
                                         deadline_slots=deadline)
        for traces, batch_plan in zip(sets, batch):
            _assert_plans_equal(
                solve_offline_plan(system, traces,
                                   deadline_slots=deadline),
                batch_plan)
            arrivals = np.concatenate(
                [[0.0], np.cumsum(traces.demand_dt)])
            served = np.concatenate([[0.0], np.cumsum(batch_plan.sdt)])
            for i in range(deadline, system.horizon_slots):
                assert served[i + 1] >= arrivals[i + 1 - deadline] - 1e-6

    def test_replayed_records_identical(self):
        system = _system()
        sets, block = _sets_and_block(system, range(5))
        plans = solve_offline_plan_batch(system, block)
        scalar_records = []
        for traces, plan in zip(sets, plans):
            result = Simulator(system, OfflineOptimal(None, plan=plan),
                               traces).run()
            scalar_records.append(
                metrics_from_result(
                    result,
                    seed=traces.meta.get("seed")).as_dict())
        runs = [StreamRunSpec(system=system,
                              controller=OfflineOptimal(None, plan=plan),
                              stream=ArrayTraceStream(traces))
                for traces, plan in zip(sets, plans)]
        batch_records = ScenarioMetrics.rows(StreamingBatchSimulator(
            runs, controller=OfflinePlanBatch(plans),
            chunk_coarse=system.num_coarse_slots).run())
        assert scalar_records == batch_records

    def test_block_diagonal_cross_check(self):
        # Independent verification of the stamping: assemble the same
        # instances into one literal block-diagonal LP and compare
        # objectives (vertices may differ on degenerate blocks).
        system = _system()
        deadline = 6
        sets, block = _sets_and_block(system, range(3))
        structure = _get_structure(system, deadline, True, 0.0)
        instances = [
            structure.instance_vectors(
                plt=traces.coarse_prices(system.fine_slots_per_coarse),
                prt=traces.price_rt, dds=traces.demand_ds,
                ddt=traces.demand_dt, renewable=traces.renewable)
            for traces in sets]
        mega = solve_block_diagonal(structure.compiled, instances)
        stamped = solve_offline_plan_batch(system, block,
                                           deadline_slots=deadline)
        for solution, plan in zip(mega, stamped):
            assert solution.objective == pytest.approx(
                plan.lp_objective, abs=1e-6)

    def test_chunked_assembly_matches_full_batch(self):
        system = _system()
        sets, block = _sets_and_block(system, range(6))
        full = solve_offline_plan_batch(system, block)
        for chunk_size in (1, 2, 4):
            chunked = []
            for start in range(0, len(sets), chunk_size):
                sub = TraceBlock.from_tracesets(
                    sets[start:start + chunk_size])
                chunked.extend(solve_offline_plan_batch(system, sub))
            for full_plan, chunk_plan in zip(full, chunked):
                _assert_plans_equal(full_plan, chunk_plan)


class TestFleetGapColumn:
    @staticmethod
    def _template(trace_kind: str = "stream") -> ScenarioSpec:
        return ScenarioSpec(
            system={"preset": "paper", "days": 1,
                    "fine_slots_per_coarse": 6},
            controller={"kind": "smartdpss"},
            trace={"kind": trace_kind})

    def _specs(self, n_seeds: int = 3):
        return grid_specs(self._template(), "controller.v", [0.1, 1.0],
                          seeds=range(n_seeds))

    @pytest.mark.fleet
    def test_records_gain_gap_columns(self):
        records = FleetRunner(self._specs(), offline_gap=True).run()
        for record in records:
            metrics = record["metrics"]
            assert metrics["offline_cost"] > 0.0
            assert metrics["offline_gap"] == pytest.approx(
                (metrics["time_avg_cost"] - metrics["offline_cost"])
                / abs(metrics["offline_cost"]))

    @pytest.mark.fleet
    def test_policy_metrics_undisturbed(self):
        # The gap column must only *add* columns: the policy run over
        # materialized array views is bit-identical to the streamed
        # run, so every shared metric matches exactly.
        specs = self._specs()
        plain = FleetRunner(specs, offline_gap=False).run()
        gapped = FleetRunner(specs, offline_gap=True).run()
        for without, with_gap in zip(plain, gapped):
            trimmed = dict(with_gap["metrics"])
            trimmed.pop("offline_cost")
            trimmed.pop("offline_gap")
            assert trimmed == without["metrics"]

    @staticmethod
    def _assert_twins_shared(specs, n_distinct, n_lanes=None):
        """One shard over ``specs``: every record equals that spec run
        alone, the shard solves one LP per distinct (system,
        realization) pair, ``n_distinct`` of them, and builds
        ``n_lanes`` trace lanes (default ``n_distinct``).

        With the offline gap off the twins still share one trace lane
        of the streamed engine (counted the same way), and every
        record still equals that spec run alone.
        """
        n_lanes = n_distinct if n_lanes is None else n_lanes
        runner = FleetRunner(specs, offline_gap=True, robustness=0.2,
                             telemetry=True)
        records = runner.run()
        assert runner.last_run_stats["shards"] == 1
        for spec, record in zip(specs, records):
            alone = FleetRunner([spec], offline_gap=True,
                                robustness=0.2).run()
            assert record == alone[0], spec.name
        manifest = runner.last_manifest
        assert manifest.stages["lp_solve"]["count"] == n_distinct
        assert manifest.counters["trace_twins"] == len(specs) - n_lanes

        streamed = FleetRunner(specs, telemetry=True)
        records = streamed.run()
        assert streamed.last_run_stats["shards"] == 1
        assert "lp_solve" not in streamed.last_manifest.stages
        assert streamed.last_manifest.counters["trace_twins"] \
            == len(specs) - n_lanes
        for spec, record in zip(specs, records):
            assert record == FleetRunner([spec]).run()[0], spec.name

    @pytest.mark.fleet
    def test_trace_twins_share_work_on_streamed_shards(self):
        template = self._template()
        specs = [
            # Exact twins: one seed, three controller.v values.
            *grid_specs(template, "controller.v", [0.1, 1.0, 3.0],
                        seeds=[7]),
            # Same seed, another solar model: another realization.
            *grid_specs(template, "trace.solar.capacity_mw", [3.0],
                        seeds=[7]),
            # Same seed, another battery (same group key): generation
            # reads no battery field, so a trace twin, but another LP
            # instance.
            *grid_specs(template, "system.battery_minutes", [30.0],
                        seeds=[7]),
            *grid_specs(template, "controller.v", [0.1, 1.0],
                        seeds=[8]),
        ]
        self._assert_twins_shared(specs, n_distinct=4, n_lanes=3)

    @pytest.mark.fleet
    def test_trace_twins_share_work_on_in_memory_shards(self):
        """``paper`` shards hold whole horizons in memory; twins still
        share one."""
        specs = grid_specs(self._template("paper"), "controller.v",
                           [0.1, 1.0, 3.0], seeds=[3, 4])
        self._assert_twins_shared(specs, n_distinct=2)

    @pytest.mark.fleet
    def test_oracle_fleet_supports_gap(self):
        # Materialized ``paper``-trace shards get the column too.
        template = ScenarioSpec(
            system={"preset": "paper", "days": 1,
                    "fine_slots_per_coarse": 6},
            controller={"kind": "impatient"},
            trace={"kind": "paper"})
        specs = grid_specs(template, "trace.seed", [11, 12],
                           seeds=range(1))
        records = FleetRunner(specs, offline_gap=True).run()
        for record in records:
            assert "offline_cost" in record["metrics"]
            # The clairvoyant baseline never loses to a naive policy
            # by more than replay accounting noise.
            assert record["metrics"]["offline_gap"] > -0.05


class TestPublicHighsFallback:
    """Without scipy's private ``_highspy`` bindings (a scipy release
    may move them) the compiled LP falls back to public ``linprog``."""

    def test_plans_match_fast_path_objectives(self, monkeypatch):
        system = _system()
        _, block = _sets_and_block(system, range(4))
        assert batch_lp.fast_path_available()
        assert _get_structure(system, DEFAULT_DEADLINE_SLOTS, True,
                              0.0).fast
        fast = solve_offline_plan_batch(system, block)
        monkeypatch.setattr(batch_lp, "_highs_bindings", lambda: None)
        assert not batch_lp.fast_path_available()
        public = solve_offline_plan_batch(system, block)
        # Plan arrays may differ: the public path can land on another
        # optimal vertex.
        for fast_plan, public_plan in zip(fast, public):
            assert public_plan.lp_objective == pytest.approx(
                fast_plan.lp_objective, rel=1e-9)

    @pytest.mark.fleet
    def test_fleet_gap_column_completes(self, monkeypatch):
        monkeypatch.setattr(batch_lp, "_highs_bindings", lambda: None)
        runner = FleetRunner(TestFleetGapColumn()._specs(n_seeds=2),
                             offline_gap=True, telemetry=True)
        for record in runner.run():
            assert "offline_cost" in record["metrics"]
        assert "offline_degraded" not in runner.last_manifest.counters


class TestErrorPaths:
    def test_block_too_short_rejected(self):
        system = _system(days=1)
        _, block = _sets_and_block(system, range(2))
        long_system = _system(days=2)
        with pytest.raises(ConfigurationError, match="slots"):
            solve_offline_plan_batch(long_system, block)

    def test_bad_deadline_rejected(self):
        system = _system()
        _, block = _sets_and_block(system, range(2))
        with pytest.raises(ConfigurationError, match=">= 1"):
            solve_offline_plan_batch(system, block, deadline_slots=0)

    def test_empty_plan_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="plan"):
            OfflinePlanBatch([])

    def test_compiled_shape_mismatch_rejected(self):
        system = _system()
        structure = _get_structure(system, DEFAULT_DEADLINE_SLOTS,
                                   True, 0.0)
        with pytest.raises(SolverError, match="shape"):
            structure.compiled.solve(c=np.zeros(3))


class TestHypothesisEquivalence:
    """Property pack: batch == scalar over randomized configurations.

    Samples the trace seed, coarse-slot length, deadline regime,
    real-time inclusion and chunked block assembly; for every drawn
    fleet the batched plans must equal the scalar plans bitwise and
    the replayed cost must match exactly.
    """

    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @staticmethod
    def _replayed_cost(system, traces, plan) -> float:
        result = Simulator(system, OfflineOptimal(None, plan=plan),
                           traces).run()
        return float(metrics_from_result(result).time_avg_cost)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10**6),
           t_slots=st.sampled_from([4, 6]),
           deadline=st.sampled_from([None, 5, 8,
                                     DEFAULT_DEADLINE_SLOTS]),
           include_rt=st.booleans(),
           n_scenarios=st.integers(min_value=1, max_value=4),
           chunk_size=st.integers(min_value=1, max_value=3))
    def test_batch_equals_scalar(self, seed, t_slots, deadline,
                                 include_rt, n_scenarios, chunk_size):
        system = _system(t_slots=t_slots)
        sets = [make_paper_traces(system, seed=seed + offset)
                for offset in range(n_scenarios)]
        # Assemble the block in randomized chunk sizes: stacking must
        # not perturb the per-scenario numerics.
        plans = []
        for start in range(0, n_scenarios, chunk_size):
            sub_block = TraceBlock.from_tracesets(
                sets[start:start + chunk_size])
            plans.extend(solve_offline_plan_batch(
                system, sub_block, deadline_slots=deadline,
                include_real_time=include_rt))
        for traces, batch_plan in zip(sets, plans):
            scalar_plan = solve_offline_plan(
                system, traces, deadline_slots=deadline,
                include_real_time=include_rt)
            _assert_plans_equal(scalar_plan, batch_plan)
            assert (self._replayed_cost(system, traces, batch_plan)
                    == self._replayed_cost(system, traces, scalar_plan))


class TestTraceBlockAssembly:
    def test_from_tracesets_round_trip(self):
        system = _system()
        sets, block = _sets_and_block(system, range(3))
        assert block.n_scenarios == 3
        for index, traces in enumerate(sets):
            restored = block.scenario(index)
            assert np.array_equal(restored.demand_ds, traces.demand_ds)
            assert np.array_equal(restored.price_lt_hourly,
                                  traces.price_lt_hourly)
            assert restored.meta.get("seed") == traces.meta.get("seed")

    def test_mismatched_lengths_rejected(self):
        short = make_paper_traces(_system(days=1), seed=0)
        long = make_paper_traces(_system(days=2), seed=0)
        with pytest.raises(Exception, match="mismatched"):
            TraceBlock.from_tracesets([short, long])

    def test_empty_rejected(self):
        with pytest.raises(TraceError, match=">= 1"):
            TraceBlock.from_tracesets([])
