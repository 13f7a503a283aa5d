"""Unit tests for the telemetry subsystem: collectors, snapshots,
run manifests, and the fleet-runner progress plumbing."""

from __future__ import annotations

import time

import pytest

from repro.fleet.runner import FleetRunner, RunProgress
from repro.fleet.spec import ScenarioSpec, grid_specs
from repro.fleet.store import ResultStore
from repro.telemetry import (
    NullTelemetry,
    RunManifest,
    TELEMETRY_OFF,
    Telemetry,
    TelemetrySnapshot,
    build_manifest,
    fleet_content_hash,
    render_manifest,
    stage_split,
)

pytestmark = pytest.mark.telemetry


class TestTelemetryCore:
    def test_span_accumulates(self):
        tele = Telemetry()
        for _ in range(3):
            with tele.span("stage"):
                pass
        stats = tele.snapshot().spans["stage"]
        assert stats["count"] == 3
        assert stats["total_s"] >= stats["max_s"] >= 0.0

    def test_span_context_manager_is_cached(self):
        tele = Telemetry()
        assert tele.span("a") is tele.span("a")
        assert tele.span("a") is not tele.span("b")

    def test_span_reads_the_collector_clock(self):
        # Exactly-representable ticks so the sums are exact.
        ticks = iter([1.0, 1.5, 2.0, 2.25])

        class TickTelemetry(Telemetry):
            clock = staticmethod(lambda: next(ticks))

        tele = TickTelemetry()
        for _ in range(2):
            with tele.span("x"):
                pass
        stats = tele.snapshot().spans["x"]
        assert stats == {"total_s": 0.75, "count": 2, "max_s": 0.5}

    def test_counters_and_gauges(self):
        tele = Telemetry()
        tele.count("slots")
        tele.count("slots", 5)
        snap = tele.snapshot()
        assert snap.counters == {"slots": 6}
        # The gauge channel had no writer and is gone.
        assert "gauges" not in snap.as_dict()
        assert not hasattr(tele, "gauge")

    def test_process_sample(self):
        snap = Telemetry().snapshot(process=True)
        assert snap.process.get("peak_rss_kb", 0) > 0

    def test_null_telemetry_is_inert(self):
        assert TELEMETRY_OFF.enabled is False
        # One shared span object — disabled sites allocate nothing.
        assert TELEMETRY_OFF.span("a") is TELEMETRY_OFF.span("b")
        with TELEMETRY_OFF.span("a"):
            pass
        TELEMETRY_OFF.count("a")
        snap = TELEMETRY_OFF.snapshot(process=True)
        assert snap.spans == {} and snap.counters == {}

    def test_disabled_guard_is_cheap(self):
        # Regression guard: a disabled span is one no-op call and an
        # empty ``with``. Very generous absolute bound so slow CI boxes
        # never flake; a span doing real work would blow it.
        tele: NullTelemetry = TELEMETRY_OFF
        t0 = time.perf_counter()
        for _ in range(200_000):
            with tele.span("x"):
                pass
        assert time.perf_counter() - t0 < 1.0


class TestSnapshotMerge:
    @staticmethod
    def snap(total, count, peak, n, rss):
        return TelemetrySnapshot(
            spans={"s": {"total_s": total, "count": count,
                         "max_s": peak}},
            counters={"n": n}, process={"peak_rss_kb": rss})

    def test_merge_sums_and_maxima(self):
        merged = self.snap(0.5, 2, 0.375, 3, 1.0).merge(
            self.snap(0.25, 1, 0.5, 4, 7.0))
        assert merged.spans["s"] == {"total_s": 0.75, "count": 3,
                                     "max_s": 0.5}
        assert merged.counters == {"n": 7}
        assert merged.process == {"peak_rss_kb": 7.0}

    def test_merge_associative_and_commutative(self):
        # Exactly-representable floats: binary sums are order-exact.
        a = self.snap(0.5, 1, 0.5, 1, 1.0)
        b = self.snap(0.25, 2, 0.125, 2, 3.0)
        c = self.snap(2.0, 3, 1.5, 4, 2.0)
        left = a.merge(b).merge(c).as_dict()
        right = a.merge(b.merge(c)).as_dict()
        shuffled = TelemetrySnapshot.merge_all([c, a, b]).as_dict()
        assert left == right == shuffled

    def test_empty_snapshot_is_identity(self):
        s = self.snap(0.5, 1, 0.5, 2, 1.0)
        assert TelemetrySnapshot().merge(s).as_dict() == s.as_dict()
        assert s.merge(TelemetrySnapshot()).as_dict() == s.as_dict()
        assert TelemetrySnapshot.merge_all([]).as_dict() == \
            TelemetrySnapshot().as_dict()

    def test_merge_does_not_mutate_operands(self):
        a = self.snap(0.5, 1, 0.5, 1, 1.0)
        b = self.snap(0.25, 1, 0.25, 1, 2.0)
        before = a.as_dict()
        a.merge(b)
        assert a.as_dict() == before

    def test_dict_round_trip(self):
        s = self.snap(0.5, 2, 0.375, 3, 1.0)
        assert TelemetrySnapshot.from_dict(s.as_dict()).as_dict() == \
            s.as_dict()

    def test_process_sample_takes_maxima(self):
        a = TelemetrySnapshot(process={"peak_rss_kb": 100.0})
        b = TelemetrySnapshot(process={"peak_rss_kb": 250.0})
        assert a.merge(b).process["peak_rss_kb"] == 250.0


class TestManifest:
    @staticmethod
    def build(snapshot=None, **overrides):
        kwargs = dict(
            spec_hashes=["aa", "bb"], scenarios=2, executed=2,
            skipped=0, shards=1, workers=1,
            batch_size=4, chunk_coarse=4, offline_gap=False,
            elapsed_s=2.0,
            snapshot=snapshot or TelemetrySnapshot(),
        )
        kwargs.update(overrides)
        return build_manifest(**kwargs)

    def test_fleet_hash_is_order_independent(self):
        assert fleet_content_hash(["a", "b", "c"]) == \
            fleet_content_hash(["c", "a", "b"])
        assert fleet_content_hash(["a"]) != fleet_content_hash(["b"])

    def test_build_manifest_facts(self):
        manifest = self.build(executed=4, elapsed_s=2.0)
        assert manifest.timing["scenarios_per_s"] == 2.0
        assert manifest.fleet["fleet_hash"] == \
            fleet_content_hash(["aa", "bb"])
        assert manifest.config == {"workers": 1, "batch_size": 4,
                                   "chunk_coarse": 4,
                                   "offline_gap": False}
        assert manifest.version == 1

    def test_dict_round_trip(self):
        manifest = self.build(snapshot=TelemetrySnapshot(
            spans={"slot_loop": {"total_s": 1.0, "count": 2,
                                 "max_s": 0.75}},
            counters={"slots": 48}))
        data = manifest.as_dict()
        assert RunManifest.from_dict(data).as_dict() == data

    def test_render_nests_known_children(self):
        manifest = self.build(snapshot=TelemetrySnapshot(spans={
            "shard": {"total_s": 2.0, "count": 1, "max_s": 2.0},
            "slot_loop": {"total_s": 1.5, "count": 2, "max_s": 1.0},
            "plan": {"total_s": 0.5, "count": 4, "max_s": 0.25},
            "p4": {"total_s": 0.25, "count": 4, "max_s": 0.125},
            "traces": {"total_s": 0.25, "count": 2, "max_s": 0.2},
        }))
        lines = manifest.render().splitlines()
        stage_lines = [line for line in lines if "slot_loop" in line
                       or "plan" in line or "p4" in line]
        assert stage_lines[0].startswith("  slot_loop")
        assert stage_lines[1].startswith("    plan")      # nested
        assert stage_lines[2].startswith("      p4")      # doubly so
        # The shard span is the share denominator, not a row.
        assert not any(line.strip().startswith("shard")
                       for line in lines)
        assert " 75.0% " in stage_lines[0]  # 1.5 / 2.0

    def test_render_promotes_orphan_nested_spans(self):
        # lp_solve nests under offline_lp; without the parent it must
        # still appear (top-level) rather than vanish.
        manifest = self.build(snapshot=TelemetrySnapshot(spans={
            "lp_solve": {"total_s": 0.5, "count": 3, "max_s": 0.25}}))
        rendered = render_manifest(manifest)
        assert any(line.startswith("  lp_solve")
                   for line in rendered.splitlines())

    def test_render_without_spans(self):
        assert "no stage spans" in self.build().render()

    def test_stage_split(self):
        split = stage_split({
            "shard": {"total_s": 2.0, "count": 1, "max_s": 2.0},
            "slot_loop": {"total_s": 1.0, "count": 1, "max_s": 1.0},
            "traces": {"total_s": 0.5, "count": 1, "max_s": 0.5},
            "p4": {"total_s": 0.4, "count": 1, "max_s": 0.4},  # nested
        })
        assert split == "slot_loop 50% | traces 25%"
        assert stage_split({}) == ""


class TestStoreManifests:
    def test_append_and_read_back(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        assert store.manifests() == []
        store.append_manifest({"version": 1, "fleet": {"scenarios": 4}})
        store.append_manifest({"version": 1, "fleet": {"scenarios": 8}})
        stored = store.manifests()
        assert [m["fleet"]["scenarios"] for m in stored] == [4, 8]
        assert store.manifest_path.exists()

    def test_retired_config_keys_still_load_and_render(self, tmp_path,
                                                       capsys):
        # Manifests written before the batch path was reduced to plain
        # NumPy carry config.backend / workspace / batch_traces, and
        # those written before every shard streamed a fleet.engines
        # tally; stores holding such lines must keep loading and
        # rendering.
        from repro.fleet.__main__ import main

        data = TestManifest.build(snapshot=TelemetrySnapshot(spans={
            "slot_loop": {"total_s": 1.0, "count": 2, "max_s": 0.75}}
        )).as_dict()
        data["config"].update(backend="numpy", workspace=None,
                              batch_traces=True)
        data["fleet"]["engines"] = {"batch": 1, "stream": 2}
        manifest = RunManifest.from_dict(data)
        assert manifest.config["backend"] == "numpy"
        assert manifest.fleet["engines"] == {"batch": 1, "stream": 2}
        assert manifest.as_dict() == data
        assert "slot_loop" in manifest.render()

        store = ResultStore(tmp_path / "s")
        store.append_manifest(data)
        assert main(["stats", str(store.root)]) == 0
        shown = capsys.readouterr().out
        assert "2 scenarios" in shown
        assert "slot_loop" in shown

    def test_gauges_key_of_older_manifests_still_loads(self, tmp_path,
                                                       capsys):
        # Manifests written while the gauge channel existed carry an
        # always-empty ``gauges`` key; they load and render without it.
        from repro.fleet.__main__ import main

        data = TestManifest.build(snapshot=TelemetrySnapshot(spans={
            "slot_loop": {"total_s": 1.0, "count": 2, "max_s": 0.75}}
        )).as_dict()
        assert "gauges" not in data
        manifest = RunManifest.from_dict({**data, "gauges": {}})
        assert manifest.as_dict() == data
        store = ResultStore(tmp_path / "s")
        store.append_manifest({**data, "gauges": {}})
        assert main(["stats", str(store.root)]) == 0
        assert "slot_loop" in capsys.readouterr().out

    def test_torn_manifest_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.append_manifest({"run": 1})
        with store.manifest_path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn": tr')  # crashed writer, no newline
        store.append_manifest({"run": 2})
        assert [m.get("run") for m in store.manifests()] == [1, 2]


class TestObserveNesting:
    """``observe`` is timed inside the chunk load, so it nests under
    ``traces`` instead of adding to it as a top-level stage."""

    def test_observed_fleet_manifest_nests_observe_under_traces(self):
        template = ScenarioSpec(
            system={"preset": "paper", "days": 2,
                    "fine_slots_per_coarse": 6},
            controller={"kind": "smartdpss"}, trace={"kind": "stream"},
            observation={"kind": "uniform", "rel_error": 0.2})
        specs = grid_specs(template, "controller.v", [0.2, 1.0, 5.0],
                           seeds=range(4))
        runner = FleetRunner(specs, telemetry=True)
        runner.run()
        manifest = runner.last_manifest
        assert manifest.stages["observe"]["count"] > 0
        lines = manifest.render().splitlines()
        (traces,) = [i for i, line in enumerate(lines)
                     if line.startswith("  traces ")]
        assert lines[traces + 1].startswith("    observe ")
        assert not any(line.startswith("  observe ") for line in lines)
        split = stage_split(manifest.stages, top=len(manifest.stages))
        assert "observe" not in split
        assert "traces" in split


class TestRunProgress:
    def test_compute(self):
        stats = RunProgress.compute(50, 200, 2.0)
        assert stats.rate == 25.0
        assert stats.eta_s == 6.0
        assert (stats.scenarios_done, stats.scenarios_total) == (50, 200)

    def test_compute_degenerate(self):
        assert RunProgress.compute(0, 10, 0.0).rate == 0.0
        assert RunProgress.compute(0, 10, 1.0).eta_s == float("inf")
        assert RunProgress.compute(10, 10, 1.0).eta_s == 0.0


