"""Telemetry on/off bit-identity through the fleet runner.

The telemetry contract (see :mod:`repro.telemetry.core`) is that
instrumentation only ever *reads* the monotonic clock — it never
touches numeric state — so a run's records are the same bit for bit
whether telemetry is on or off.  These tests pin that contract through
every execution path the runner offers: generated traces streamed
in-process, materialized ``paper`` traces streamed from resident
horizons, a process pool, and the offline-gap LP path (which threads
the collector all the way into the compiled LP solves).
"""

from __future__ import annotations

import json

import pytest

from repro.fleet.runner import FleetRunner
from repro.fleet.spec import ScenarioSpec, grid_specs
from repro.fleet.store import ResultStore

pytestmark = [pytest.mark.equivalence, pytest.mark.telemetry]


def stream_fleet() -> list[ScenarioSpec]:
    template = ScenarioSpec(
        system={"preset": "paper", "days": 1,
                "fine_slots_per_coarse": 6},
        controller={"kind": "smartdpss"},
        trace={"kind": "stream"})
    return grid_specs(template, "controller.v", [0.2, 1.0],
                      seeds=(0, 1, 2))


def paper_fleet() -> list[ScenarioSpec]:
    # Trace kind "paper" materializes each realization once per shard
    # and streams over views of it.
    template = ScenarioSpec(
        system={"preset": "paper", "days": 1,
                "fine_slots_per_coarse": 6},
        controller={"kind": "impatient"},
        trace={"kind": "paper"})
    return grid_specs(template, "controller.plan_for_total_demand",
                      [True, False], seeds=(0, 1))


def canonical(records: list[dict]) -> str:
    return json.dumps(records, sort_keys=True)


def run_records(specs, *, telemetry, **kwargs) -> list[dict]:
    return FleetRunner(specs, batch_size=4, telemetry=telemetry,
                       **kwargs).run()


class TestBitIdentity:
    def test_streamed_engine(self):
        specs = stream_fleet()
        off = run_records(specs, telemetry=False)
        on = run_records(specs, telemetry=True)
        assert canonical(on) == canonical(off)

    def test_paper_trace_fleet(self):
        specs = paper_fleet()
        off = run_records(specs, telemetry=False)
        on = run_records(specs, telemetry=True)
        assert canonical(on) == canonical(off)
        assert all(r["engine"] == "stream" for r in on)

    @pytest.mark.slow
    def test_process_pool(self):
        specs = stream_fleet()
        off = run_records(specs, telemetry=False, max_workers=2)
        on = run_records(specs, telemetry=True, max_workers=2)
        assert canonical(on) == canonical(off)

    def test_offline_gap_path(self):
        specs = stream_fleet()[:2]
        off = run_records(specs, telemetry=False, offline_gap=True)
        on = run_records(specs, telemetry=True, offline_gap=True)
        assert canonical(on) == canonical(off)
        assert "offline_gap" in on[0]["metrics"]


class TestManifestPlumbing:
    def test_manifest_recorded_and_stored(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        runner = FleetRunner(stream_fleet(), batch_size=4,
                             store=store, telemetry=True)
        runner.run()
        manifest = runner.last_manifest
        assert manifest is not None
        assert manifest.fleet["scenarios"] == 6
        assert manifest.fleet["executed"] == 6
        assert manifest.counters["scenarios"] == 6
        assert manifest.counters["shards"] == 2
        # The stage breakdown covers the pipeline: spec decode, chunk
        # loads, the slot loop and its nested controller/solver spans,
        # record encoding, appends.
        for stage in ("spec_decode", "slot_loop", "real_time", "p5",
                      "plan", "p4", "physics", "traces", "record_encode",
                      "store_append", "shard"):
            assert stage in manifest.stages, stage
        stored = store.manifests()
        assert len(stored) == 1
        assert stored[0] == manifest.as_dict()

    def test_uninstrumented_run_stores_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        runner = FleetRunner(stream_fleet()[:2], store=store)
        runner.run()
        assert runner.last_manifest is None
        assert store.manifests() == []

    def test_shard_snapshots_merge_across_process_pool(self):
        runner = FleetRunner(stream_fleet(), batch_size=2,
                             max_workers=2, telemetry=True)
        runner.run()
        manifest = runner.last_manifest
        assert manifest.counters["shards"] == 3
        assert manifest.counters["scenarios"] == 6
        assert manifest.config["workers"] == 2
        # Worker wall-time sums; each shard ran 24 fine slots.
        assert manifest.counters["slots"] == 3 * 24

    def test_resumed_specs_are_excluded_from_executed(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        specs = stream_fleet()
        FleetRunner(specs[:4], store=store).run()
        runner = FleetRunner(specs, store=store, telemetry=True)
        records = runner.run()
        assert len(records) == 6
        manifest = runner.last_manifest
        assert manifest.fleet["resumed"] == 4
        assert manifest.fleet["executed"] == 2
        assert manifest.counters["scenarios"] == 2
