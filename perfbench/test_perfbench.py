"""Tests of the benchmark harness itself.

Run from the repository root (they are not part of the tier-1 suite)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_specs  # noqa: E402

from repro.fleet import Fault, FaultPlan, ResultStore  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"  {name} " in proc.stdout  # the human-readable row


def test_failed_frac_counts_exactly_one_poisoned_scenario(tmp_path):
    workload = WORKLOADS["sweep-1d"]
    specs = build_specs(workload, seed=7, tiny=True)
    clean = measure.run_fleet(workload, specs, tmp_path / "clean")
    poisoned = 11
    plan = FaultPlan(faults=(Fault(site="plan", scenario=specs[poisoned].name,
                                   times=None),))
    faulty = measure.run_fleet(workload, specs, tmp_path / "faulty",
                               fault_plan=plan, retry_backoff_s=0.0)
    assert clean["failed"] == 0
    assert faulty["failed"] == 1
    assert faulty["failed"] / faulty["attempted"] == 1 / len(specs)
    assert faulty["records"][poisoned]["quarantined"] is True
    assert faulty["lines"] == [line for i, line in enumerate(clean["lines"])
                               if i != poisoned]


def test_records_match_the_cli_and_do_not_depend_on_workers(tmp_path):
    workload = WORKLOADS["gap-robust-1d"]
    specs = build_specs(workload, seed=7, tiny=True)
    serial = measure.run_fleet(workload, specs, tmp_path / "serial")
    pooled = measure.run_fleet(workload, specs, tmp_path / "pool",
                               max_workers=2)
    assert pooled["digest"] == serial["digest"]

    spec_file = tmp_path / "fleet.json"
    spec_file.write_text(json.dumps([spec.to_dict() for spec in specs]))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.fleet", "run", "--spec-file",
         str(spec_file), "--out", str(tmp_path / "cli"), "--offline-gap",
         "--robustness", "0.2"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    store = ResultStore(tmp_path / "cli")
    assert measure.canonical_lines(store, specs, serial["records"]) \
        == serial["lines"]


def test_pinned_digest_mismatch_fails_loudly(tmp_path, monkeypatch):
    workload = WORKLOADS["sweep-1d"]
    n = len(build_specs(workload, DEFAULT_SEED, tiny=True))
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps(
        {workload.name: {"scenarios": n, "sha256": "0" * 64}}))
    monkeypatch.setattr(measure, "DIGESTS_PATH", digests)
    with pytest.raises(measure.RecordMismatch, match="pinned"):
        measure.measure(workload, DEFAULT_SEED, 0.0, False, True,
                        tmp_path / "work")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = _bench("--workload", "sweep-1d", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
