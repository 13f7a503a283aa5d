"""Every example script runs to completion.

The examples use the public API the way a reader would, so a renamed
or removed name breaks them.  Each runs in its own interpreter with
``PYTHONPATH=src`` and must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    """An empty glob would parametrize nothing and pass silently."""
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, (
        f"{script.name} exited {completed.returncode}:\n"
        f"{completed.stderr[-2000:]}")
