"""Import-graph guard: scipy loads only where an LP is built or solved.

SmartDPSS decides online with closed-form piecewise-linear solves; only
the clairvoyant offline baseline and the lookahead oracle solve LPs.
Each check runs in a fresh interpreter, because this test process has
long since imported everything.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import sys

def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.")
               for name in sys.modules)
"""


def run_fresh(code: str) -> None:
    """Run ``code`` after :data:`PRELUDE` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr


def test_library_and_clis_import_without_scipy():
    run_fresh("""
        import repro
        import repro.fleet.__main__
        import repro.experiments.__main__
        loaded = sorted(name for name in sys.modules
                        if name.split(".")[0] == "scipy")
        assert not loaded, loaded
    """)


def test_offline_plan_solve_loads_scipy():
    run_fresh("""
        from repro.baselines.offline import solve_offline_plan
        from repro.config.presets import paper_system_config
        from repro.traces.library import make_paper_traces

        system = paper_system_config(days=1)
        traces = make_paper_traces(system, seed=3)
        assert not scipy_loaded()
        solve_offline_plan(system, traces)
        assert scipy_loaded()
    """)


def test_pooled_lp_fleet_loads_scipy_before_forking():
    # Two single-scenario shards on two workers: the parent solves no
    # LP itself, so scipy in the parent is the pre-fork load.
    run_fresh("""
        from repro.fleet import FleetRunner
        from repro.fleet.spec import ScenarioSpec, grid_specs

        template = ScenarioSpec(
            system={"preset": "paper", "days": 1,
                    "fine_slots_per_coarse": 6},
            controller={"kind": "smartdpss"}, trace={"kind": "stream"})
        specs = grid_specs(template, "controller.v", [0.5, 2.0],
                           seeds=(0,))
        runner = FleetRunner(specs, batch_size=1, max_workers=2,
                             offline_gap=True)
        assert not scipy_loaded()
        records = runner.run()
        assert all("offline_cost" in r["metrics"] for r in records)
        assert scipy_loaded()
    """)


def test_resumed_pooled_lp_fleet_loads_no_scipy(tmp_path):
    # A finished fleet re-run into its own store executes nothing, so
    # it neither starts a pool nor pre-loads scipy for one.
    from repro.fleet import FleetRunner, ResultStore
    from repro.fleet.spec import ScenarioSpec, grid_specs

    template = ScenarioSpec(
        system={"preset": "paper", "days": 1,
                "fine_slots_per_coarse": 6},
        controller={"kind": "smartdpss"}, trace={"kind": "stream"})
    specs = grid_specs(template, "controller.v", [0.5, 2.0],
                       seeds=(0, 1))
    FleetRunner(specs, offline_gap=True,
                store=ResultStore(tmp_path)).run()
    run_fresh(f"""
        from repro.fleet import FleetRunner, ResultStore
        from repro.fleet.spec import ScenarioSpec

        specs = [ScenarioSpec.from_dict(data) for data in {
            [spec.to_dict() for spec in specs]!r}]
        runner = FleetRunner(specs, max_workers=2, offline_gap=True,
                             store=ResultStore({str(tmp_path)!r}))
        records = runner.run()
        assert all("offline_cost" in r["metrics"] for r in records)
        assert runner.last_run_stats["executed"] == 0
        assert runner.last_run_stats["shards"] == 0
        assert not scipy_loaded()
    """)
