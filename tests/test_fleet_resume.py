"""Fleet resumption: spec-hash keyed skipping of stored scenarios."""

from __future__ import annotations

import json

import pytest

from repro.fleet.__main__ import build_demo_fleet
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import ScenarioSpec, spec_content_hash
from repro.fleet.store import ResultStore, encode_record

pytestmark = pytest.mark.fleet


def _fleet(n: int):
    return build_demo_fleet("v-sweep", n, days=1, t_slots=6,
                            sample_seed=0)


def test_spec_hash_is_canonical_and_discriminating():
    spec = ScenarioSpec(seed=7, controller={"kind": "smartdpss",
                                            "v": 1.5})
    reordered = ScenarioSpec.from_dict(
        json.loads(json.dumps(spec.to_dict())))
    assert spec.spec_hash() == reordered.spec_hash()
    assert spec_content_hash(spec.to_dict()) == spec.spec_hash()
    # Any content change — including only the seed — changes the hash.
    other_seed = ScenarioSpec.from_dict({**spec.to_dict(), "seed": 8})
    other_v = ScenarioSpec(seed=7, controller={"kind": "smartdpss",
                                               "v": 1.51})
    assert len({spec.spec_hash(), other_seed.spec_hash(),
                other_v.spec_hash()}) == 3


def test_records_carry_spec_hash(tmp_path):
    specs = _fleet(4)
    store = ResultStore(tmp_path / "store")
    records = FleetRunner(specs, batch_size=4, store=store).run()
    for spec, record in zip(specs, records):
        assert record["spec_hash"] == spec.spec_hash()
    assert store.spec_hashes() == {spec.spec_hash() for spec in specs}


def test_resume_skips_stored_scenarios(tmp_path):
    specs = _fleet(12)
    store = ResultStore(tmp_path / "store")
    executed = []

    def progress(outcome, finished, total, stats):
        executed.append((outcome.indices, total))

    first = FleetRunner(specs[:8], batch_size=4, store=store).run(
        progress=progress)
    assert len(executed) == 2
    executed.clear()

    # A superset sweep re-executes only the 4 new scenarios...
    second = FleetRunner(specs, batch_size=4, store=store).run(
        progress=progress)
    assert len(executed) == 1
    assert sorted(executed[0][0]) == [8, 9, 10, 11]
    # ...while stored scenarios come back in place, identically.
    assert [r["metrics"] for r in second[:8]] == \
        [r["metrics"] for r in first]
    assert len(store) == 12
    executed.clear()

    # A full re-run executes nothing and appends nothing.
    third = FleetRunner(specs, batch_size=4, store=store).run(
        progress=progress)
    assert executed == []
    assert len(store) == 12
    assert [r["spec_hash"] for r in third] == \
        [r["spec_hash"] for r in second]


def test_resume_false_restores_append_behavior(tmp_path):
    specs = _fleet(4)
    store = ResultStore(tmp_path / "store")
    FleetRunner(specs, batch_size=4, store=store).run()
    FleetRunner(specs, batch_size=4, store=store, resume=False).run()
    assert len(store) == 8  # duplicates accumulated deliberately


def test_resume_without_store_runs_everything():
    specs = _fleet(4)
    executed = []
    FleetRunner(specs, batch_size=4).run(
        progress=lambda o, f, t, s: executed.append(f))
    assert executed  # no store => nothing to resume from


def test_legacy_records_without_hash_still_resume(tmp_path):
    """Stores written before the resumption layer resume via their
    embedded spec dicts."""
    specs = _fleet(4)
    store = ResultStore(tmp_path / "store")
    records = FleetRunner(specs, batch_size=4, store=store).run()

    legacy = ResultStore(tmp_path / "legacy")
    legacy.append(
        [encode_record({k: v for k, v in record.items()
                        if k != "spec_hash"})
         for record in records])
    executed = []
    resumed = FleetRunner(specs, batch_size=4, store=legacy).run(
        progress=lambda o, f, t, s: executed.append(f))
    assert executed == []
    assert [r["metrics"] for r in resumed] == \
        [r["metrics"] for r in records]
