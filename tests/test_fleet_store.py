"""Unit tests for the append-only result store and its aggregation."""

from __future__ import annotations

import json

import pytest

from repro.fleet.store import ResultStore, encode_record
from repro.exceptions import StateError


pytestmark = pytest.mark.fleet


def record(value, seed, cost, delay=1.0):
    return {
        "name": f"v={value}/seed={seed}",
        "value": value,
        "seed": seed,
        "controller": "smartdpss",
        "engine": "stream",
        "metrics": {
            "time_avg_cost": cost,
            "avg_delay_slots": delay,
            "worst_delay_slots": 4,
            "availability": 1.0,
            "waste_mwh": 0.0,
            "battery_ops": 2,
        },
    }


def append(store, *records) -> int:
    """Append records the way the runner's sink does: encoded lines."""
    return store.append([encode_record(r) for r in records])


def test_append_and_read_round_trip(tmp_path):
    store = ResultStore(tmp_path / "s")
    assert append(store, record(0.1, 0, 10.0)) == 1
    assert append(store, record(0.1, 1, 12.0), record(1.0, 0, 8.0)) == 2
    assert store.append([]) == 0
    rows = list(store)
    assert len(rows) == 3 and len(store) == 3
    assert rows[0]["metrics"]["time_avg_cost"] == 10.0
    assert rows[2]["value"] == 1.0


def test_store_is_append_only_across_instances(tmp_path):
    path = tmp_path / "s"
    append(ResultStore(path), record(0.1, 0, 10.0))
    # Reopening the same directory appends, never truncates.
    append(ResultStore(path), record(0.1, 1, 14.0))
    store = ResultStore(path)
    assert len(store) == 2
    meta = json.loads((store.root / "meta.json").read_text())
    assert meta["format"] == "repro-fleet-results"


def test_sweep_table_averages_seed_replicas(tmp_path):
    store = ResultStore(tmp_path / "s")
    append(store, record(0.1, 0, 10.0, delay=2.0),
           record(0.1, 1, 14.0, delay=4.0),
           record(1.0, 0, 8.0, delay=6.0))
    table = store.sweep_table(metrics=("time_avg_cost",
                                       "avg_delay_slots"))
    assert [p.value for p in table.points] == [0.1, 1.0]
    assert table.points[0].n_seeds == 2
    assert table.points[0].metrics["time_avg_cost"] == 12.0
    assert table.points[0].metrics["avg_delay_slots"] == 3.0
    assert table.points[1].metrics["time_avg_cost"] == 8.0
    assert table.column("time_avg_cost") == [12.0, 8.0]


def test_sweep_table_groups_structured_values(tmp_path):
    store = ResultStore(tmp_path / "s")
    value = {"v": 0.5, "capacity": 2.0}
    append(store, dict(record(0, 0, 10.0), value=value),
           dict(record(0, 1, 20.0), value=dict(value)))
    table = store.sweep_table(metrics=("time_avg_cost",))
    assert len(table.points) == 1
    assert table.points[0].metrics["time_avg_cost"] == 15.0


def test_sweep_table_missing_metric_raises(tmp_path):
    store = ResultStore(tmp_path / "s")
    append(store, record(0.1, 0, 10.0))
    with pytest.raises(KeyError, match="lacks metrics"):
        store.sweep_table(metrics=("no_such_metric",))


def test_empty_store_raises(tmp_path):
    store = ResultStore(tmp_path / "s")
    with pytest.raises(StateError, match="empty"):
        store.sweep_table()
    assert list(store) == []


def test_torn_trailing_line_is_tolerated(tmp_path):
    """A crashed writer's partial final line must not break reads."""
    store = ResultStore(tmp_path / "s")
    append(store, record(0.1, 0, 10.0))
    with store.path.open("a", encoding="utf-8") as handle:
        handle.write('{"name": "torn", "metr')  # no newline, cut off
    assert len(ResultStore(tmp_path / "s")) == 1
    # Appending encoded lines after the torn fragment starts them on a
    # fresh line: the fragment stays its own (skipped) line and every
    # new line lands whole.
    lines = [encode_record(record(0.1, 1, 12.0)),
             encode_record(record(1.0, 0, 8.0))]
    assert store.append(lines) == 2
    rows = list(store)
    assert [r["seed"] for r in rows] == [0, 1, 0]
    stored = store.path.read_text(encoding="utf-8").splitlines()
    assert stored[1] == '{"name": "torn", "metr'
    assert stored[2:] == lines


def test_torn_lines_are_skipped_everywhere(tmp_path):
    store = ResultStore(tmp_path / "s")
    store.path.write_text('not json\n{"a": 1}\n', encoding="utf-8")
    assert list(store) == [{"a": 1}]


def test_render_smoke(tmp_path):
    store = ResultStore(tmp_path / "s")
    append(store, record(0.1, 0, 10.0), record(1.0, 0, 8.0))
    text = store.sweep_table(name="demo").render()
    assert "demo" in text and "time_avg_cost" in text
