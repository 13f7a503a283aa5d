"""Tier-1 self-gate: ``src/repro`` and ``tests/oracles`` must lint clean.

This is the enforcement point for the invariants in
``src/repro/lint/README.md`` — any new finding either gets fixed or
gets an inline ``# replint: ignore[R00x] <reason>`` waiver.  The
oracles the tests check the library against are held to the
library's invariants too; the rest of ``tests/`` is not linted.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import run_lint

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
LINT_ROOTS = [SRC_ROOT, REPO_ROOT / "tests" / "oracles"]


def _format(findings):
    return "\n".join(
        f"  {f.rule} {f.path}:{f.line}: {f.message}" for f in findings)


def test_src_repro_is_lint_clean():
    report = run_lint(LINT_ROOTS)
    assert report.files_scanned > 50, (
        "lint walked suspiciously few files — scope bug?")
    assert report.clean, (
        f"{len(report.findings)} new lint finding(s) in src/repro or "
        f"tests/oracles "
        f"(fix, or waive inline with a reason):\n"
        f"{_format(report.findings)}")

