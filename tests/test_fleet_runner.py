"""Unit tests for the fleet runner: sharding, engines, stores, CLI."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.fleet.faults import Fault, FaultPlan
from repro.fleet.runner import FleetRunner, _split_shards
from repro.fleet.spec import ScenarioSpec, grid_specs, product_specs
from repro.fleet.store import ResultStore, encode_record
from repro.fleet.__main__ import build_demo_fleet, main

pytestmark = pytest.mark.fleet


def tiny_template(**controller) -> ScenarioSpec:
    return ScenarioSpec(
        system={"preset": "paper", "days": 1,
                "fine_slots_per_coarse": 6},
        controller={"kind": "smartdpss", **controller},
        trace={"kind": "stream"})


def tiny_fleet() -> list[ScenarioSpec]:
    return grid_specs(tiny_template(), "controller.v",
                      [0.2, 1.0], seeds=(0, 1, 2))


class TestSharding:
    def test_split_shards(self):
        assert _split_shards(list(range(7)), 3) == [[0, 1, 2],
                                                    [3, 4, 5], [6]]
        assert _split_shards([], 3) == []
        with pytest.raises(ConfigurationError):
            _split_shards([1], 0)

    def test_compatible_specs_share_a_shard(self):
        runner = FleetRunner(tiny_fleet(), batch_size=64)
        payloads = runner.shards()
        assert len(payloads) == 1
        assert len(payloads[0]["specs"]) == 6

    def test_batch_size_splits_groups(self):
        runner = FleetRunner(tiny_fleet(), batch_size=4)
        sizes = sorted(len(p["specs"]) for p in runner.shards())
        assert sizes == [2, 4]

    def test_incompatible_shapes_get_separate_shards(self):
        specs = tiny_fleet()
        data = tiny_template().to_dict()
        data["system"] = {"preset": "paper", "days": 1,
                          "fine_slots_per_coarse": 12}
        specs.append(ScenarioSpec.from_dict(data))
        assert len(FleetRunner(specs).shards()) == 2

    def test_oracle_specs_split_by_trace_kind(self):
        specs = []
        for trace_kind in ("stream", "paper", "stream"):
            data = tiny_template().to_dict()
            data["controller"] = {"kind": "offline"}
            data["trace"] = {"kind": trace_kind}
            specs.append(ScenarioSpec.from_dict(data))
        payloads = FleetRunner(specs).shards()
        assert [p["indices"] for p in payloads] == [[0, 2], [1]]

    def test_shards_follow_trace_seed_order(self):
        # Seeds 0, 1, 2 sit at positions (0, 3), (1, 4), (2, 5).
        runner = FleetRunner(tiny_fleet(), batch_size=4)
        assert [p["indices"] for p in runner.shards()] == [[0, 3, 1, 4],
                                                           [2, 5]]

    def test_v_sweep_builds_each_realization_about_once(self):
        # The benchmark's shape: 20 V values x 200 seeds, default
        # batch size.
        specs = build_demo_fleet("v-sweep", 4000, days=1, t_slots=6,
                                 sample_seed=0)
        payloads = FleetRunner(specs).shards()
        lanes = sum(len({specs[i].trace_key() for i in p["indices"]})
                    for p in payloads)
        # One lane per seed, plus at most one split seed per boundary.
        assert len(payloads) == 16
        assert lanes <= 200 + len(payloads) - 1

    def test_resume_keeps_twins_together(self, tmp_path):
        specs = tiny_fleet()
        store = ResultStore(tmp_path / "s")
        FleetRunner(specs[:2], store=store).run()
        shards: list[list[int]] = []
        runner = FleetRunner(specs, batch_size=2, store=store)
        runner.run(progress=lambda outcome, done, total, stats:
                   shards.append(list(outcome.indices)))
        # Left: seed 2 at (2, 5), seed 0 at 3, seed 1 at 4.
        assert shards == [[2, 5], [3, 4]]
        assert runner.last_run_stats["skipped"] == 2
        assert len(store) == 6

    @pytest.mark.offline
    @pytest.mark.telemetry
    def test_twin_shards_solve_each_realization_once(self):
        specs = tiny_fleet()
        runner = FleetRunner(specs, batch_size=4, offline_gap=True,
                             telemetry=True)
        records = runner.run()
        # Shards [0, 3, 1, 4] and [2, 5]: one LP per seed and shard.
        assert runner.last_manifest.stages["lp_solve"]["count"] == 3
        assert runner.last_manifest.counters["trace_twins"] == 3
        assert records == FleetRunner(specs, batch_size=1,
                                      offline_gap=True).run()

    def test_reshape_lanes_share_one_base_realization(self, monkeypatch):
        """Lanes that differ only in reshapes or ``β`` (Fig. 8's
        penetration and variation values, Fig. 10's expansions) keep
        their own keys but generate one base per (seed, models, clip)
        in a shard."""
        from repro.experiments.common import paper_spec
        from repro.fleet import spec as spec_module

        generated: list[int] = []
        make = spec_module.make_paper_traces

        def counted(**kwargs):
            generated.append(kwargs["seed"])
            return make(**kwargs)

        monkeypatch.setattr(spec_module, "make_paper_traces", counted)
        specs = [paper_spec(7, 1, trace={"renewable_penetration": level})
                 for level in (0.1, 0.3, 0.5)]
        specs += [paper_spec(7, 1, trace={"demand_variation": scale})
                  for scale in (0.5, 1.0)]
        specs += [paper_spec(7, 1, expansion=beta) for beta in (1.0, 2.0)]
        specs += [paper_spec(8, 1, trace={"renewable_penetration": 0.3})]
        runner = FleetRunner(specs)
        assert len(runner.shards()) == 1
        records = runner.run()
        assert sorted(generated) == [7, 8]
        generated.clear()
        assert records == FleetRunner(specs, batch_size=1).run()
        assert len(generated) == len(specs)


#: One bad option per case: (spec section, its value, words the error
#: names).  Each used to fail only in the worker, so every affected
#: scenario was retried, bisected and quarantined.
BAD_OPTIONS = [
    ("controller", {"kind": "smartdpss", "vv": 1.0}, "'vv'"),
    ("controller", {"kind": "smartdps"}, "'smartdps'"),
    ("controller", {"kind": "impatient", "foo": 1}, "'foo'"),
    ("controller", {"kind": "smartdpss", "emergency_purchase": True},
     "'emergency_purchase'"),
    ("trace", {"kind": "stream", "solr": {}}, "'solr'"),
    ("trace", {"kind": "stream", "solar": {"capacity": 1.0}},
     "'capacity'"),
    ("observation", {"kind": "unifrm"}, "'unifrm'"),
    ("system", {"preset": "paper", "dayz": 1,
                "fine_slots_per_coarse": 6}, "'dayz'"),
]


def with_option(spec: ScenarioSpec, section: str, value) -> ScenarioSpec:
    data = spec.to_dict()
    data[section] = value
    return ScenarioSpec.from_dict(data)


class TestOptionCheck:
    """Unknown kinds and option names fail once, when the fleet is
    built, naming the spec position and the option."""

    @pytest.mark.parametrize("section, value, named", BAD_OPTIONS)
    def test_bad_option_fails_at_construction(self, section, value,
                                              named):
        specs = grid_specs(tiny_template(), "controller.v",
                           [0.2, 0.5, 1.0, 2.0], seeds=(0, 1))
        specs[5] = with_option(specs[5], section, value)
        with pytest.raises(ConfigurationError) as caught:
            FleetRunner(specs, batch_size=8, retry_backoff_s=0)
        message = str(caught.value)
        assert message.startswith(f"spec 5 ({specs[5].name!r}): ")
        assert named in message

    def test_specs_stay_constructible(self):
        # The builders keep raising where they did; only the runner
        # checks a whole fleet.
        spec = with_option(tiny_template(), "controller",
                           {"kind": "smartdps"})
        with pytest.raises(ConfigurationError, match="controller kind"):
            spec.build_controller()

    def test_values_are_left_to_the_builders(self):
        # ``v`` is a known name; only the config can judge its value.
        spec = tiny_template(v=-1.0)
        runner = FleetRunner([spec], fail_fast=True)
        with pytest.raises(ConfigurationError, match="V must be > 0"):
            runner.run()

    def test_every_kind_and_recipe_option_passes(self):
        template = tiny_template()
        specs = [with_option(template, "controller", controller)
                 for controller in (
                     {"kind": "smartdpss", "v": 2.0, "epsilon": 1.0},
                     {"kind": "impatient", "plan_for_total_demand": False},
                     {"kind": "myopic", "serve_quantile": 0.2},
                     {"kind": "lookahead", "backlog_penalty": 40.0},
                     {"kind": "offline", "deadline_slots": None},
                     {"kind": "p2_offline"})]
        specs.append(ScenarioSpec.from_dict({
            **template.to_dict(),
            "system": {"preset": "raw",
                       **dataclasses.asdict(template.build_system())},
            "trace": {"kind": "paper", "seed": 3,
                      "demand": {"batch_jobs_per_hour": 2.0},
                      "solar": {"capacity_mw": 3.0},
                      "price": {"mean_price": 40.0},
                      "renewable_penetration": 0.3},
            "observation": {"kind": "dropout", "rate": 0.1, "seed": 7}}))
        FleetRunner(specs)


class TestRun:
    def test_records_come_back_in_spec_order(self):
        specs = tiny_fleet()
        records = FleetRunner(specs, batch_size=4).run()
        assert len(records) == len(specs)
        for spec, row in zip(specs, records):
            assert row["name"] == spec.name
            assert row["seed"] == spec.seed
            assert row["value"] == spec.value
            assert row["engine"] == "stream"
            assert row["metrics"]["availability"] == pytest.approx(1.0)
            assert row["spec"] == spec.to_dict()

    def test_records_are_json_serializable(self):
        records = FleetRunner(tiny_fleet()[:2]).run()
        json.dumps(records)

    def test_store_receives_incremental_appends(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        seen = []
        runner = FleetRunner(tiny_fleet(), batch_size=2, store=store)
        runner.run(progress=lambda outcome, done, total, stats:
                   seen.append((done, total, len(store))))
        # After each shard the store already holds that shard's rows.
        assert [s[:2] for s in seen] == [(1, 3), (2, 3), (3, 3)]
        assert [s[2] for s in seen] == [2, 4, 6]
        assert len(store) == 6

    def test_mixed_engine_fleet(self):
        """Generated and materialized traces, online and oracle
        policies: every shard streams, and ``metrics.seed`` records the
        trace seed whatever the recipe."""
        specs = tiny_fleet()[:2]
        for kind in ("impatient", "lookahead"):
            data = tiny_template().to_dict()
            data["seed"] = 3
            data["controller"] = {"kind": kind}
            data["trace"] = {"kind": "paper", "seed": 7}
            specs.append(ScenarioSpec.from_dict(data))
        records = FleetRunner(specs).run()
        assert [r["engine"] for r in records] == ["stream"] * 4
        assert [r["controller"] for r in records[2:]] == ["impatient",
                                                          "lookahead"]
        assert [r["seed"] for r in records[2:]] == [3, 3]
        assert [r["metrics"]["seed"] for r in records] == [0, 1, 7, 7]

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError, match="no scenarios"):
            FleetRunner([])

    def test_invalid_knobs_rejected(self):
        specs = tiny_fleet()
        for kwargs in ({"batch_size": 0}, {"chunk_coarse": 0},
                       {"max_workers": 0}, {"max_workers": -2},
                       {"max_retries": -1}, {"shard_timeout": 0.0},
                       {"shard_timeout": -1.0},
                       {"retry_backoff_s": -0.1}):
            with pytest.raises(ConfigurationError):
                FleetRunner(specs, **kwargs)
        # None stays auto (in-process); 1 is a valid explicit serial.
        FleetRunner(specs, max_workers=None)
        FleetRunner(specs, max_workers=1)


def stored_lines(store: ResultStore) -> list[str]:
    return store.path.read_text(encoding="utf-8").splitlines()


class TestStoreLines:
    """Workers encode the store lines; the parent writes them as-is."""

    def test_stored_bytes_are_the_returned_records(self, tmp_path):
        # Dict values, an observation record, a name with quotes and
        # non-ASCII, robustness columns, and one scenario whose offline
        # LP degrades (its offline columns are left out).
        specs = product_specs(
            tiny_template(),
            {"controller.v": [0.2, 1.0], "trace.solar.capacity_mw": [5.0]},
            seeds=(0, 1))
        specs[1] = dataclasses.replace(
            specs[1], observation={"kind": "uniform", "rel_error": 0.1})
        specs[2] = dataclasses.replace(specs[2], name='v="1.0" — Δ/ñ')
        plan = FaultPlan(faults=(Fault(
            site="lp_solve", error="solver", scenario=specs[3].name,
            times=None),))
        files = []
        for workers in (2, None):
            store = ResultStore(tmp_path / f"w{workers}")
            records = FleetRunner(
                specs, batch_size=2, max_workers=workers, store=store,
                offline_gap=True, robustness=0.1, fault_plan=plan,
                retry_backoff_s=0).run()
            assert isinstance(records[0]["value"], dict)
            assert "observation" in records[1]
            assert "robustness_gap" in records[0]["metrics"]
            assert "offline_gap" in records[0]["metrics"]
            assert "offline_gap" not in records[3]["metrics"]
            lines = stored_lines(store)
            assert sorted(lines) == sorted(encode_record(record)
                                           for record in records)
            files.append(sorted(lines))
        assert files[0] == files[1]

    def test_storeless_outcomes_carry_no_lines(self, tmp_path):
        outcomes = []
        FleetRunner(tiny_fleet(), batch_size=4).run(
            progress=lambda outcome, *_: outcomes.append(outcome))
        assert [outcome.lines for outcome in outcomes] == [(), ()]
        outcomes.clear()
        FleetRunner(tiny_fleet(), batch_size=4,
                    store=ResultStore(tmp_path / "s")).run(
            progress=lambda outcome, *_: outcomes.append(outcome))
        for outcome in outcomes:
            assert outcome.lines == tuple(
                encode_record(record) for record in outcome.records)

    def test_store_attached_after_construction(self, tmp_path):
        # ``fleet run`` builds the runner, plans its shards (to log
        # their count), and only then attaches the store.
        runner = FleetRunner(tiny_fleet(), batch_size=4, max_workers=2)
        assert len(runner.shards()) == 2
        store = runner.store = ResultStore(tmp_path / "s")
        records = runner.run()
        assert sorted(stored_lines(store)) == sorted(
            encode_record(record) for record in records)
        assert len(store) == 6


class TestCli:
    def test_demo_fleet_sizes(self):
        fleet = build_demo_fleet("v-sweep", 45, days=1, t_slots=6,
                                 sample_seed=0)
        assert len(fleet) == 45
        fleet = build_demo_fleet("random", 10, days=1, t_slots=6,
                                 sample_seed=0)
        assert len(fleet) == 10
        assert all(spec.trace_kind == "stream" for spec in fleet)

    def test_run_and_report(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert main(["run", "--demo", "v-sweep", "--scenarios", "12",
                     "--days", "1", "--t-slots", "6",
                     "--out", str(out), "--batch-size", "8"]) == 0
        assert main(["report", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "12 records" in captured
        assert "time_avg_cost" in captured

    def test_report_unknown_metric_logs_one_line(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert main(["run", "--demo", "v-sweep", "--scenarios", "2",
                     "--days", "1", "--t-slots", "6",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(out), "--metrics",
                     "time_avg_cost,bogus_metric"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "lacks metrics ['bogus_metric']" in line
        assert "Traceback" not in captured.err

    @pytest.mark.telemetry
    def test_run_with_telemetry_and_stats(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert main(["run", "--demo", "v-sweep", "--scenarios", "8",
                     "--days", "1", "--t-slots", "6",
                     "--out", str(out), "--batch-size", "4",
                     "--telemetry"]) == 0
        assert main(["stats", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "slot_loop" in captured
        assert "scenarios/s" in captured
        assert "counters:" in captured

    def test_stats_without_manifest_errors(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert main(["run", "--demo", "v-sweep", "--scenarios", "2",
                     "--out", str(out)]) == 0
        assert main(["stats", str(out)]) == 1
        assert "no run manifests" in capsys.readouterr().err

    def test_rerun_summary_counts_resumed_scenarios(self, tmp_path,
                                                    capsys):
        # The CLI logs to stderr through a fresh root handler on every
        # call, so the summary is read there.
        argv = ["run", "--demo", "v-sweep", "--scenarios", "4",
                "--days", "1", "--t-slots", "6",
                "--out", str(tmp_path / "store")]
        assert main(argv) == 0
        assert "completed 4 scenarios in " in capsys.readouterr().err
        assert main(argv) == 0
        (summary,) = [line for line in capsys.readouterr().err.splitlines()
                      if line.startswith("completed ")]
        assert summary.startswith("completed 0 scenarios in ")
        assert "(0 scenarios/s), 4 resumed from the store;" in summary

    def test_read_commands_on_store_without_records(self, tmp_path,
                                                    capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--out", str(empty)]) == 1
        assert "is empty" in capsys.readouterr().err
        missing = tmp_path / "missing"
        assert main(["report", "--out", str(missing)]) == 1
        assert "no result store" in capsys.readouterr().err
        assert main(["stats", str(missing)]) == 1
        assert "no result store" in capsys.readouterr().err
        assert not missing.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--batch-size", "0"], "batch_size must be >= 1, got 0"),
        (["--workers", "0"], "max_workers must be >= 1"),
        (["--chunk-coarse", "0"], "chunk_coarse must be >= 1, got 0"),
        (["--robustness", "1.5"], "relative error must be in [0, 1)"),
        (["--scenarios", "0"], "need >= 1 scenario, got 0"),
    ])
    def test_bad_run_arguments_create_no_store(self, tmp_path, capsys,
                                               argv, message):
        out = tmp_path / "store"
        assert main(["run", "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("section, value, named", BAD_OPTIONS)
    def test_bad_spec_file_creates_no_store(self, tmp_path, capsys,
                                            section, value, named):
        fleet = [spec.to_dict() for spec in tiny_fleet()]
        fleet[2][section] = value
        spec_file = tmp_path / "fleet.json"
        spec_file.write_text(json.dumps(fleet), encoding="utf-8")
        out = tmp_path / "store"
        assert main(["run", "--spec-file", str(spec_file),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "spec 2 (" in err and named in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_run_spec_file(self, tmp_path):
        fleet = [spec.to_dict() for spec in tiny_fleet()[:3]]
        spec_file = tmp_path / "fleet.json"
        spec_file.write_text(json.dumps(fleet), encoding="utf-8")
        out = tmp_path / "store"
        assert main(["run", "--spec-file", str(spec_file),
                     "--out", str(out)]) == 0
        assert len(ResultStore(out)) == 3
