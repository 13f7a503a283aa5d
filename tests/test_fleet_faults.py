"""Chaos suite: every fleet recovery path, driven deterministically.

The :mod:`repro.fleet.faults` harness injects failures at named sites
(engine slot loop, trace loading, LP solves, store appends, whole
workers) so the retry → bisect → quarantine lifecycle, the pool
respawn paths and the torn-write tolerance of the store are exercised
on purpose — with healthy scenarios asserted bit-identical to a
fault-free run throughout.
"""

from __future__ import annotations

import dataclasses
import errno
import json

import pytest

from repro.exceptions import (
    ConfigurationError,
    FaultInjectionError,
    TraceCorruptionError,
)
from repro.fleet import runner as runner_module
from repro.fleet.faults import FAULT_ENV_VAR, Fault, FaultPlan
from repro.fleet.runner import FleetRunner, _tear_last_line
from repro.fleet.spec import ScenarioSpec, grid_specs
from repro.fleet.store import ResultStore
from repro.fleet.__main__ import build_demo_fleet, main

pytestmark = [pytest.mark.fleet, pytest.mark.faults]


def tiny_template(trace_kind: str = "stream") -> ScenarioSpec:
    return ScenarioSpec(
        system={"preset": "paper", "days": 1,
                "fine_slots_per_coarse": 6},
        controller={"kind": "smartdpss"},
        trace={"kind": trace_kind})


def tiny_fleet(trace_kind: str = "stream") -> list[ScenarioSpec]:
    return grid_specs(tiny_template(trace_kind), "controller.v",
                      [0.2, 1.0], seeds=(0, 1, 2))


@pytest.fixture(scope="module")
def fleet() -> list[ScenarioSpec]:
    return tiny_fleet()


@pytest.fixture(scope="module")
def reference(fleet) -> list[dict]:
    """Fault-free records every chaos run must reproduce bit-identically."""
    return FleetRunner(fleet, batch_size=4, fault_plan=FaultPlan()).run()


def count_shards(monkeypatch) -> list[list[int]]:
    """Record the indices of every in-process shard computation."""
    computed: list[list[int]] = []
    run_shard = runner_module._run_spec_shard

    def counted(payload):
        computed.append(list(payload["indices"]))
        return run_shard(payload)

    monkeypatch.setattr(runner_module, "_run_spec_shard", counted)
    return computed


def run_chaos(fleet, plan, **kwargs):
    """A runner armed with ``plan`` and test-friendly defaults."""
    kwargs.setdefault("batch_size", 4)
    kwargs.setdefault("retry_backoff_s", 0)
    runner = FleetRunner(fleet, fault_plan=plan, **kwargs)
    return runner, runner.run()


class TestFaultValidation:
    def test_unknown_site_action_series_rejected(self):
        with pytest.raises(ConfigurationError, match="site"):
            Fault(site="disk")
        with pytest.raises(ConfigurationError, match="action"):
            Fault(site="plan", action="explode")
        with pytest.raises(ConfigurationError, match="series"):
            Fault(site="traces", action="nan", series="weather")

    def test_torn_requires_store_append_site(self):
        with pytest.raises(ConfigurationError, match="torn"):
            Fault(site="plan", action="torn")
        Fault(site="store_append", action="torn")  # the valid pairing

    def test_times_and_rate_bounds(self):
        with pytest.raises(ConfigurationError, match="times"):
            Fault(site="plan", times=0)
        with pytest.raises(ConfigurationError, match="rate"):
            Fault(site="plan", rate=1.5)
        Fault(site="plan", times=None, rate=0.0)  # both edges valid

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown Fault"):
            Fault.from_dict({"site": "plan", "when": "now"})

    def test_plan_round_trips_and_coerces_dicts(self):
        plan = FaultPlan(faults=(
            Fault(site="slot_loop", scenario="s", times=None, slot=3),
            {"site": "store_append", "action": "torn"}), seed=7)
        assert all(isinstance(f, Fault) for f in plan.faults)
        assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan
        assert len(plan) == 2

    def test_matches_scenario_by_name_or_seed(self):
        assert Fault(site="plan").matches_scenario("x", 0)
        named = Fault(site="plan", scenario="x")
        assert named.matches_scenario("x", 5)
        assert not named.matches_scenario("y", 5)
        seeded = Fault(site="plan", scenario=5)
        assert seeded.matches_scenario("anything", 5)
        assert not seeded.matches_scenario("anything", 6)

    def test_from_env_inline_json_and_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULT_ENV_VAR, raising=False)
        assert FaultPlan.from_env() is None
        plan = FaultPlan(faults=(Fault(site="plan", times=None),), seed=3)
        monkeypatch.setenv(FAULT_ENV_VAR, json.dumps(plan.to_dict()))
        assert FaultPlan.from_env() == plan
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
        monkeypatch.setenv(FAULT_ENV_VAR, str(path))
        assert FaultPlan.from_env() == plan
        # An armed environment reaches a runner that passes no plan.
        runner = FleetRunner(tiny_fleet())
        assert runner.fault_plan == plan

    def test_rate_gating_is_deterministic_in_the_plan_seed(self):
        fault = Fault(site="plan", rate=0.5, times=None)
        keys = [(f"s{i}", i) for i in range(64)]

        def fired(seed):
            bound = FaultPlan(faults=(fault,), seed=seed).bind(keys)
            return list(bound._matches(fault, "plan", None))

        assert fired(3) == fired(3)          # reproducible
        assert 0 < len(fired(3)) < 64        # actually probabilistic
        assert fired(3) != fired(4)          # keyed by the plan seed


class TestSerialRecovery:
    def test_transient_fault_retries_then_succeeds(self, fleet, reference,
                                                   tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = FaultPlan(faults=(Fault(site="slot_loop", times=1),))
        runner, records = run_chaos(fleet, plan, store=store)
        # Both shards fail on attempt 0, go quiet on the retry.
        assert runner.last_run_stats == {
            "executed": 6, "skipped": 0, "shards": 2, "retries": 2,
            "bisections": 0, "quarantined": 0, "pool_respawns": 0}
        assert records == reference
        assert len(store) == 6
        assert store.errors() == []

    def test_poisoned_scenario_bisects_to_quarantine(self, fleet,
                                                     reference, tmp_path):
        store = ResultStore(tmp_path / "s")
        poisoned = fleet[1].name
        plan = FaultPlan(faults=(
            Fault(site="slot_loop", scenario=poisoned, times=None,
                  slot=3, message="poisoned"),))
        runner, records = run_chaos(fleet, plan, store=store)
        # Shards follow trace-seed order: [0,3,1,4] retries twice,
        # bisects; [1,4] retries twice, bisects; [1] alone retries
        # twice and is quarantined — leaving 3 successful shards:
        # [0,3], [4] and [2,5].
        assert runner.last_run_stats == {
            "executed": 5, "skipped": 0, "shards": 3, "retries": 6,
            "bisections": 2, "quarantined": 1, "pool_respawns": 0}
        assert records[1]["quarantined"] is True
        assert [records[i] for i in (0, 2, 3, 4, 5)] == \
            [reference[i] for i in (0, 2, 3, 4, 5)]
        (error,) = store.errors()
        assert error["name"] == poisoned
        assert error["spec_hash"] == fleet[1].spec_hash()
        assert error["quarantined"] is True
        assert error["error"]["type"] == "FaultInjectionError"
        assert error["error"]["site"] == "slot_loop"
        assert error["error"]["attempts"] >= 1
        assert "poisoned" in error["error"]["message"]
        assert len(store) == 5  # healthy rows only in results.jsonl

    def test_recovery_counters_reach_the_manifest(self, fleet, tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = FaultPlan(faults=(Fault(site="slot_loop", times=1),))
        runner, _ = run_chaos(fleet, plan, store=store, telemetry=True)
        counters = runner.last_manifest.counters
        assert counters["retries"] == 2
        (stored,) = store.manifests()
        assert stored["counters"]["retries"] == 2

    def test_fail_fast_restores_all_or_nothing(self, fleet):
        plan = FaultPlan(faults=(
            Fault(site="slot_loop", scenario=fleet[1].name, times=None),))
        with pytest.raises(FaultInjectionError):
            run_chaos(fleet, plan, fail_fast=True)

    def test_plan_naming_no_scenario_is_quiet(self, monkeypatch):
        """An armed plan whose every fault names a scenario outside the
        fleet — what every unmatched shard sees when a plan pins one
        scenario of a large sweep — leaves records identical to a
        disarmed run and never enters a recovery path."""
        monkeypatch.delenv(FAULT_ENV_VAR, raising=False)
        specs = build_demo_fleet("v-sweep", 200, days=1, t_slots=6,
                                 sample_seed=0)
        disarmed = FleetRunner(specs, batch_size=64)
        assert disarmed.fault_plan is None
        absent = "__no_such_scenario__"
        quiet = FaultPlan(faults=tuple(
            Fault(site=site, scenario=absent, times=None)
            for site in ("slot_loop", "traces", "plan")))
        runner, records = run_chaos(specs, quiet, batch_size=64)
        assert records == disarmed.run()
        assert runner.last_run_stats == {
            "executed": 200, "skipped": 0, "shards": 4, "retries": 0,
            "bisections": 0, "quarantined": 0, "pool_respawns": 0}

    @pytest.mark.parametrize("trace_kind", ["stream", "paper"])
    def test_nan_corruption_quarantines_without_bisection(self, trace_kind,
                                                          tmp_path):
        """Generated and materialized (``paper``) traces alike: the
        poisoned chunk raises before its scenario advances."""
        fleet = tiny_fleet(trace_kind)
        reference = FleetRunner(fleet, batch_size=4,
                                fault_plan=FaultPlan()).run()
        store = ResultStore(tmp_path / "s")
        poisoned = fleet[2].name
        plan = FaultPlan(faults=(
            Fault(site="traces", action="nan", scenario=poisoned,
                  slot=2, series="renewable"),))
        runner, records = run_chaos(fleet, plan, store=store)
        # The error names its scenario, so no retry/bisect round-trips.
        assert runner.last_run_stats == {
            "executed": 5, "skipped": 0, "shards": 2, "retries": 0,
            "bisections": 0, "quarantined": 1, "pool_respawns": 0}
        (error,) = store.errors()
        assert error["name"] == poisoned
        assert error["error"]["type"] == "TraceCorruptionError"
        assert "'renewable'" in error["error"]["message"]
        assert "slot 2" in error["error"]["message"]
        assert [records[i] for i in (0, 1, 3, 4, 5)] == \
            [reference[i] for i in (0, 1, 3, 4, 5)]

    def test_lp_failure_degrades_offline_columns_only(self, fleet):
        baseline = FleetRunner(fleet, batch_size=4, offline_gap=True,
                               fault_plan=FaultPlan()).run()
        degraded_name = fleet[4].name
        plan = FaultPlan(faults=(
            Fault(site="lp_solve", error="solver", scenario=degraded_name,
                  times=None, message="iteration limit"),))
        runner, records = run_chaos(fleet, plan, offline_gap=True)
        # No shard failed: degradation happens inside the solver stage.
        assert runner.last_run_stats["retries"] == 0
        assert runner.last_run_stats["quarantined"] == 0
        for index, (record, ref) in enumerate(zip(records, baseline)):
            if index == 4:
                assert "offline_cost" not in record["metrics"]
                assert "offline_gap" not in record["metrics"]
                trimmed = {k: v for k, v in ref["metrics"].items()
                           if k not in ("offline_cost", "offline_gap")}
                assert record["metrics"] == trimmed
            else:
                assert record == ref  # gap columns intact elsewhere

    def test_store_append_fault_is_retried(self, fleet, reference,
                                           tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "s")
        computed = count_shards(monkeypatch)
        plan = FaultPlan(faults=(Fault(site="store_append", times=1),))
        runner, records = run_chaos(fleet, plan, store=store)
        # The fault fires before each append attempt and goes quiet on
        # the second.  The sink retries the append itself (one retry
        # per shard), so each shard is computed once and no duplicate
        # rows are left behind.
        assert runner.last_run_stats["retries"] == 2
        assert runner.last_run_stats["quarantined"] == 0
        assert computed == [[0, 3, 1, 4], [2, 5]]
        assert records == reference
        assert len(store) == 6

    def test_torn_append_recovers_on_resume(self, fleet, reference,
                                            tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = FaultPlan(faults=(
            Fault(site="store_append", action="torn", times=1),))
        runner, records = run_chaos(fleet, plan, store=store)
        # Both shard appends lose their final line: the last scenario
        # of each payload in the plan.
        torn = sorted(payload["indices"][-1]
                      for payload in runner.shards())
        assert len(torn) == 2
        assert records == reference  # in-memory results are unharmed
        assert len(store) == 4
        executed: list[int] = []
        resumed = FleetRunner(
            fleet, batch_size=4, store=store, fault_plan=FaultPlan(),
        ).run(progress=lambda o, f, t, s: executed.extend(o.indices))
        assert sorted(executed) == torn  # exactly the torn rows
        assert [r["metrics"] for r in resumed] == \
            [r["metrics"] for r in reference]
        assert set(store.latest_by_hash()) == \
            {spec.spec_hash() for spec in fleet}


class TestStoreFailure:
    """A store failure is not a scenario failure: the run stops and
    raises the store's error, re-runs no shard and quarantines no
    scenario."""

    @staticmethod
    def full_disk(store) -> list[int]:
        """Make every append of ``store`` fail; returns the attempts."""
        attempts: list[int] = []

        def append(lines):
            attempts.append(len(lines))
            raise OSError(errno.ENOSPC, "No space left on device")

        store.append = append
        return attempts

    def test_failing_store_raises_after_append_retries(self, tmp_path,
                                                       monkeypatch):
        fleet = grid_specs(tiny_template(), "controller.v",
                           [0.2, 0.5, 1.0, 2.0], seeds=(0, 1))
        store = ResultStore(tmp_path / "s")
        attempts = self.full_disk(store)
        computed = count_shards(monkeypatch)
        runner = FleetRunner(fleet, batch_size=8, store=store,
                             retry_backoff_s=0, fault_plan=FaultPlan())
        with pytest.raises(OSError) as raised:
            runner.run()
        assert raised.value.errno == errno.ENOSPC
        # One shard, computed once; its append tried 1 + max_retries
        # times with all 8 lines.
        assert [sorted(indices) for indices in computed] == [
            list(range(8))]
        assert attempts == [8, 8, 8]
        assert store.errors() == []
        assert len(store) == 0

    def test_failing_store_stops_the_pool(self, fleet, tmp_path):
        store = ResultStore(tmp_path / "s")
        attempts = self.full_disk(store)
        runner = FleetRunner(fleet, batch_size=2, max_workers=2,
                             store=store, retry_backoff_s=0,
                             fault_plan=FaultPlan())
        with pytest.raises(OSError):
            runner.run()
        # The first finished shard's append fails three times, then
        # the run stops: no other shard reaches the store.
        assert attempts == [2, 2, 2]
        assert store.errors() == []
        assert len(store) == 0


class TestDeterministicErrors:
    """A library error a re-run cannot change skips the retry budget."""

    def test_bad_value_bisects_without_retries_or_backoff(self, tmp_path,
                                                          monkeypatch):
        # A negative ε fails every scenario the same way, in the
        # worker, on every attempt.
        fleet = [dataclasses.replace(
                     spec, controller={**spec.controller, "epsilon": -1.0})
                 for spec in build_demo_fleet("v-sweep", 8, days=1,
                                              t_slots=6, sample_seed=0)]
        sleeps = []
        monkeypatch.setattr("repro.fleet.runner.time.sleep",
                            sleeps.append)
        store = ResultStore(tmp_path / "s")
        # The default retry_backoff_s: retries would sleep.
        runner = FleetRunner(fleet, batch_size=8, store=store)
        records = runner.run()
        # One shard of 8 halves three times down to single scenarios:
        # 1 + 2 + 4 bisections, each scenario run at sizes 8, 4, 2, 1.
        assert runner.last_run_stats == {
            "executed": 0, "skipped": 0, "shards": 0, "retries": 0,
            "bisections": 7, "quarantined": 8, "pool_respawns": 0}
        assert sleeps == []
        assert all(record["quarantined"] for record in records)
        errors = store.errors()
        assert [e["error"]["type"] for e in errors] \
            == ["ConfigurationError"] * 8
        assert [e["error"]["attempts"] for e in errors] == [4] * 8


@pytest.mark.offline
class TestTraceTwinFaults:
    """Trace twins share one trace build, LP solve and replay per shard,
    yet a fault aimed at one twin stays with that twin."""

    @pytest.fixture(scope="class")
    def twins(self) -> list[ScenarioSpec]:
        # One seed, two controller.v values: one trace realization.
        return grid_specs(tiny_template(), "controller.v", [0.2, 1.0],
                          seeds=(5,))

    @pytest.fixture(scope="class")
    def twin_reference(self, twins) -> list[dict]:
        return FleetRunner(twins, offline_gap=True,
                           fault_plan=FaultPlan()).run()

    @pytest.fixture(scope="class")
    def streamed_twin_reference(self, twins) -> list[dict]:
        return FleetRunner(twins, fault_plan=FaultPlan()).run()

    @pytest.mark.parametrize("faulty", [0, 1])
    def test_lp_failure_degrades_only_its_twin(self, twins,
                                               twin_reference, faulty):
        plan = FaultPlan(faults=(
            Fault(site="lp_solve", error="solver",
                  scenario=twins[faulty].name, times=None),))
        runner, records = run_chaos(twins, plan, offline_gap=True,
                                    telemetry=True)
        assert runner.last_run_stats["shards"] == 1
        assert runner.last_run_stats["retries"] == 0
        assert runner.last_manifest.counters["offline_degraded"] == 1
        degraded = records[faulty]["metrics"]
        assert "offline_cost" not in degraded
        assert "offline_gap" not in degraded
        assert degraded == {
            k: v for k, v in twin_reference[faulty]["metrics"].items()
            if k not in ("offline_cost", "offline_gap")}
        assert records[1 - faulty] == twin_reference[1 - faulty]

    @pytest.mark.parametrize("offline_gap", [True, False])
    def test_nan_corruption_quarantines_only_its_twin(
            self, twins, twin_reference, streamed_twin_reference,
            offline_gap):
        # With the gap off the twins share one streamed kernel lane;
        # the poisoned value lands in twin 0's own row copy.
        plan = FaultPlan(faults=(
            Fault(site="traces", action="nan", scenario=twins[0].name,
                  slot=2, series="demand_ds"),))
        runner, records = run_chaos(twins, plan, offline_gap=offline_gap)
        assert runner.last_run_stats["shards"] == 1
        assert runner.last_run_stats["quarantined"] == 1
        assert records[0]["quarantined"] is True
        assert records[0]["error"]["type"] == "TraceCorruptionError"
        reference = (twin_reference if offline_gap
                     else streamed_twin_reference)
        assert records[1] == reference[1]


class TestGeneratedCorruption:
    """A non-finite value from trace generation itself — not the fault
    harness — is typed where it loads and quarantines its scenario at
    once: streamed or materialized (``paper``) recipes, on the
    streamed read and the offline gap's full-horizon read alike."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("trace_kind", ["stream", "paper"])
    @pytest.mark.parametrize("offline_gap", [False, True])
    def test_generated_inf_quarantines_without_retry(self, offline_gap,
                                                     trace_kind):
        fleet = grid_specs(tiny_template(trace_kind), "controller.v",
                           [0.5, 1.0, 2.0, 4.0], seeds=(0, 1))
        poisoned = dataclasses.replace(
            fleet[5], trace={**fleet[5].trace,
                             "demand": {"search_peak_mw": float("inf")}})
        healthy = fleet[:5] + fleet[6:]
        reference = FleetRunner(healthy, offline_gap=offline_gap).run()
        runner = FleetRunner(fleet[:5] + [poisoned] + fleet[6:],
                             offline_gap=offline_gap, retry_backoff_s=0)
        records = runner.run()
        assert runner.last_run_stats["retries"] == 0
        assert runner.last_run_stats["bisections"] == 0
        assert [r["spec_hash"] for r in records
                if r.get("quarantined")] == [poisoned.spec_hash()]
        assert records[5]["error"]["type"] == "TraceCorruptionError"
        assert records[:5] + records[6:] == reference


class TestObserveSite:
    """The ``observe`` fault site: corruption of what controllers see."""

    def test_observed_nan_quarantines_naming_view_and_series(
            self, fleet, reference, tmp_path):
        store = ResultStore(tmp_path / "s")
        poisoned = fleet[2].name
        plan = FaultPlan(faults=(
            Fault(site="observe", action="nan", scenario=poisoned,
                  slot=3, series="price_rt"),))
        runner, records = run_chaos(fleet, plan, store=store)
        # The typed error names its scenario: direct quarantine, no
        # retry/bisect round-trips.
        assert runner.last_run_stats == {
            "executed": 5, "skipped": 0, "shards": 2, "retries": 0,
            "bisections": 0, "quarantined": 1, "pool_respawns": 0}
        (error,) = store.errors()
        assert error["name"] == poisoned
        assert error["error"]["type"] == "ObservationCorruptionError"
        assert "observed" in error["error"]["message"]
        assert "'price_rt'" in error["error"]["message"]
        assert "slot 3" in error["error"]["message"]
        # Only the observed view was poisoned — physics runs on truth,
        # so every healthy scenario is bit-identical to fault-free.
        assert [records[i] for i in (0, 1, 3, 4, 5)] == \
            [reference[i] for i in (0, 1, 3, 4, 5)]

    def test_observe_site_raise_retries_then_succeeds(self, fleet,
                                                      reference):
        plan = FaultPlan(faults=(Fault(site="observe", times=1),))
        runner, records = run_chaos(fleet, plan)
        # Both shards fail once at the observation stage, then recover.
        assert runner.last_run_stats["retries"] == 2
        assert runner.last_run_stats["quarantined"] == 0
        assert records == reference


class TestPoolRecovery:
    def test_worker_kill_respawns_pool(self, fleet, reference, tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = FaultPlan(faults=(
            Fault(site="plan", action="kill", scenario=fleet[4].name,
                  times=1),))
        runner, records = run_chaos(fleet, plan, store=store,
                                    max_workers=2)
        stats = runner.last_run_stats
        assert stats["pool_respawns"] >= 1
        assert stats["quarantined"] == 0
        assert stats["executed"] == 6
        assert records == reference
        assert len(store) == 6

    def test_shard_timeout_terminates_and_retries(self, fleet, reference,
                                                  tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = FaultPlan(faults=(
            Fault(site="plan", action="hang", seconds=30.0,
                  scenario=fleet[0].name, times=1),))
        runner, records = run_chaos(fleet, plan, store=store,
                                    max_workers=2, shard_timeout=1.0)
        stats = runner.last_run_stats
        assert stats["retries"] >= 1
        assert stats["pool_respawns"] >= 1
        assert stats["quarantined"] == 0
        assert records == reference
        assert len(store) == 6


class TestResumeQuarantine:
    def test_quarantine_served_until_retry_requested(self, fleet,
                                                     reference, tmp_path):
        store = ResultStore(tmp_path / "s")
        poisoned = fleet[1].name
        plan = FaultPlan(faults=(
            Fault(site="slot_loop", scenario=poisoned, times=None,
                  slot=3),))
        run_chaos(fleet, plan, store=store)

        # Resume treats the quarantined hash as done (re-running would
        # re-fail) and serves the typed record in its slot.
        executed: list[int] = []
        runner = FleetRunner(fleet, batch_size=4, store=store,
                             fault_plan=FaultPlan())
        records = runner.run(
            progress=lambda o, f, t, s: executed.extend(o.indices))
        assert executed == []
        assert runner.last_run_stats["skipped"] == 6
        assert records[1]["quarantined"] is True

        # retry_quarantined re-offers exactly that scenario; without
        # the fault plan it now succeeds.
        runner = FleetRunner(fleet, batch_size=4, store=store,
                             fault_plan=FaultPlan(),
                             retry_quarantined=True)
        records = runner.run(
            progress=lambda o, f, t, s: executed.extend(o.indices))
        assert executed == [1]
        assert records[1]["metrics"] == reference[1]["metrics"]

        # The success record supersedes the quarantine from now on.
        runner = FleetRunner(fleet, batch_size=4, store=store,
                             fault_plan=FaultPlan())
        records = runner.run()
        assert runner.last_run_stats["executed"] == 0
        assert "quarantined" not in records[1]
        assert records[1]["metrics"] == reference[1]["metrics"]


class TestTornWriteRecovery:
    """A writer killed mid-append must not poison readers or resume."""

    def test_results_reader_skips_torn_line_and_resume_refills(
            self, fleet, reference, tmp_path):
        store = ResultStore(tmp_path / "s")
        FleetRunner(fleet, batch_size=4, store=store,
                    fault_plan=FaultPlan()).run()
        _tear_last_line(store.path)
        assert len(store) == 5  # the partial line is skipped, not fatal
        assert len(store.latest_by_hash()) == 5
        executed: list[int] = []
        resumed = FleetRunner(
            fleet, batch_size=4, store=store, fault_plan=FaultPlan(),
        ).run(progress=lambda o, f, t, s: executed.extend(o.indices))
        assert executed == [5]  # exactly the scenario the tear lost
        assert [r["metrics"] for r in resumed] == \
            [r["metrics"] for r in reference]
        # The repaired append after a torn tail stays line-delimited.
        assert len(store) == 6

    def test_manifest_reader_skips_torn_line(self, fleet, tmp_path,
                                             capsys):
        store = ResultStore(tmp_path / "s")
        FleetRunner(fleet, batch_size=4, store=store, telemetry=True,
                    fault_plan=FaultPlan()).run()
        assert len(store.manifests()) == 1
        _tear_last_line(store.manifest_path)
        assert store.manifests() == []
        # The next instrumented run appends a fresh, readable manifest.
        FleetRunner(fleet, batch_size=4, store=store, resume=False,
                    telemetry=True, fault_plan=FaultPlan()).run()
        assert len(store.manifests()) == 1
        assert main(["stats", str(store.root)]) == 0
        assert "scenarios/s" in capsys.readouterr().out


class TestCli:
    def test_env_plan_quarantine_and_stats_view(self, tmp_path,
                                                monkeypatch, capsys):
        fleet = build_demo_fleet("v-sweep", 6, days=1, t_slots=6,
                                 sample_seed=0)
        poisoned = fleet[2].name
        plan = FaultPlan(faults=(
            Fault(site="slot_loop", scenario=poisoned, times=None,
                  slot=3),))
        monkeypatch.setenv(FAULT_ENV_VAR, json.dumps(plan.to_dict()))
        out = tmp_path / "store"
        argv = ["run", "--demo", "v-sweep", "--scenarios", "6",
                "--days", "1", "--t-slots", "6", "--out", str(out),
                "--batch-size", "4", "--max-retries", "0"]
        assert main(argv) == 0  # the sweep survives its poisoned member
        store = ResultStore(out)
        assert len(store) == 5
        (error,) = store.errors()
        assert error["name"] == poisoned

        assert main(["stats", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "quarantined scenarios: 1 active" in shown
        assert poisoned in shown
        assert "--retry-quarantined" in shown

        # Disarmed rerun with --retry-quarantined heals the store.
        monkeypatch.delenv(FAULT_ENV_VAR)
        assert main(argv + ["--retry-quarantined"]) == 0
        assert main(["stats", str(out)]) == 0
        assert "quarantined scenarios: 0 active" in \
            capsys.readouterr().out

    def test_fault_flags_parse(self, tmp_path):
        out = tmp_path / "store"
        assert main(["run", "--demo", "v-sweep", "--scenarios", "2",
                     "--days", "1", "--t-slots", "6", "--out", str(out),
                     "--max-retries", "1", "--shard-timeout", "300",
                     "--fail-fast"]) == 0
        assert len(ResultStore(out)) == 2


@pytest.mark.slow
def test_thousand_scenario_chaos_sweep(tmp_path):
    """The acceptance sweep: a worker kill plus a permanently poisoned
    scenario inside a 10³-scenario run — the run completes, the
    poisoned scenario lands in ``errors.jsonl`` typed, and every other
    scenario is bit-identical to a fault-free run, including across a
    resume."""
    specs = build_demo_fleet("v-sweep", 1000, days=1, t_slots=6,
                             sample_seed=0)
    reference = FleetRunner(specs, batch_size=128,
                            fault_plan=FaultPlan()).run()

    poisoned_index, killed_index = 137, 602
    plan = FaultPlan(faults=(
        Fault(site="slot_loop", scenario=specs[poisoned_index].name,
              times=None, slot=3, message="poisoned scenario"),
        Fault(site="plan", action="kill",
              scenario=specs[killed_index].name, times=1),))
    store = ResultStore(tmp_path / "chaos")
    runner = FleetRunner(specs, batch_size=128, max_workers=2,
                         store=store, fault_plan=plan, max_retries=1,
                         retry_backoff_s=0)
    records = runner.run()

    stats = runner.last_run_stats
    assert stats["executed"] == 999
    assert stats["quarantined"] == 1
    assert stats["pool_respawns"] >= 1
    (error,) = store.errors()
    assert error["name"] == specs[poisoned_index].name
    assert error["error"]["type"] == "FaultInjectionError"
    assert error["error"]["site"] == "slot_loop"
    assert records[poisoned_index]["quarantined"] is True
    for index, (record, ref) in enumerate(zip(records, reference)):
        if index != poisoned_index:
            assert record == ref

    # Resume executes nothing: 999 results + 1 quarantine cover the
    # fleet; the quarantine record is served in place.
    executed: list[int] = []
    resumed = FleetRunner(
        specs, batch_size=128, store=store, fault_plan=FaultPlan(),
    ).run(progress=lambda o, f, t, s: executed.extend(o.indices))
    assert executed == []
    assert resumed[poisoned_index]["quarantined"] is True
