"""Unit tests for the fleet runner: sharding, engines, stores, CLI."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.fleet.runner import FleetRunner, _split_shards
from repro.fleet.spec import ScenarioSpec, grid_specs
from repro.fleet.store import ResultStore
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
        runner.run(progress=lambda outcome, done, total:
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

    def test_run_spec_file(self, tmp_path):
        fleet = [spec.to_dict() for spec in tiny_fleet()[:3]]
        spec_file = tmp_path / "fleet.json"
        spec_file.write_text(json.dumps(fleet), encoding="utf-8")
        out = tmp_path / "store"
        assert main(["run", "--spec-file", str(spec_file),
                     "--out", str(out)]) == 0
        assert len(ResultStore(out)) == 3
