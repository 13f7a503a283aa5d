"""Tier-1 self-gate: ``src/repro`` and ``tests/oracles`` must lint clean.

This is the enforcement point for the invariants in
``src/repro/lint/README.md`` — any new finding either gets fixed,
gets an inline ``# replint: ignore[R00x] <reason>`` waiver, or (for
deliberate long-lived debt) a justified entry in the repo-root
``lint-baseline.txt``.  The oracles the tests check the library
against are held to the library's invariants too; the rest of
``tests/`` is not linted.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import Baseline, run_lint

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
LINT_ROOTS = [SRC_ROOT, REPO_ROOT / "tests" / "oracles"]
BASELINE_PATH = REPO_ROOT / "lint-baseline.txt"


def _format(findings):
    return "\n".join(
        f"  {f.rule} {f.path}:{f.line}: {f.message}" for f in findings)


def test_src_repro_is_lint_clean():
    baseline = (Baseline.load(BASELINE_PATH)
                if BASELINE_PATH.exists() else None)
    report = run_lint(LINT_ROOTS, baseline=baseline)
    assert report.files_scanned > 50, (
        "lint walked suspiciously few files — scope bug?")
    assert report.clean, (
        f"{len(report.findings)} new lint finding(s) in src/repro or "
        f"tests/oracles "
        f"(fix, waive inline with a reason, or baseline):\n"
        f"{_format(report.findings)}")


def test_baseline_entries_still_match_when_present():
    """Every baseline entry must still correspond to a live finding —
    stale entries mean the debt was paid and the entry should go."""
    if not BASELINE_PATH.exists():
        pytest.skip("no baseline file checked in")
    baseline = Baseline.load(BASELINE_PATH)
    report = run_lint(LINT_ROOTS, baseline=baseline)
    matched = {f.rule + ":" + f.snippet.strip() for f in report.baselined}
    assert len(report.baselined) >= len(baseline) or not len(baseline), (
        f"stale baseline entries: {len(baseline)} listed, only "
        f"{len(report.baselined)} still fire ({sorted(matched)})")
