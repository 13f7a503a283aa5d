"""Golden regression tests: pinned seed-state figure metrics.

Small JSON fixtures under ``tests/equivalence/golden/`` pin the
headline metrics of the figure experiments (fig5-fig10 and the
ablations) at tiny horizons (seconds, not minutes).  Any refactor that
silently drifts the physics — engine, controller, traces, or the fleet
route every experiment runs through — fails these before it reaches a
full-size figure.

Regenerate (only when a drift is *intended* and understood)::

    PYTHONPATH=src python tests/equivalence/test_golden.py --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.equivalence

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Relative tolerance for pinned floats: loose enough to survive
#: benign BLAS/NumPy kernel differences across machines, tight enough
#: that any real physics change (wrong branch, different candidate)
#: lands far outside it.
REL_TOL = 1e-7


def compute_fig5() -> dict:
    from repro.experiments.fig5_traces import run_fig5

    result = run_fig5(days=4)
    return {
        "summary": result.summary,
        "hourly_demand": list(result.hourly_demand),
        "hourly_solar": list(result.hourly_solar),
        "hourly_price": list(result.hourly_price),
        "renewable_penetration": result.renewable_penetration,
        "price_premium_rt_over_lt": result.price_premium_rt_over_lt,
    }


def compute_fig6_v() -> dict:
    from repro.experiments.fig6_v_sweep import run_fig6_v

    result = run_fig6_v(days=4, v_values=(0.1, 1.0, 5.0))
    return {
        "rows": [{
            "v": row.v,
            "time_avg_cost": row.time_avg_cost,
            "avg_delay_slots": row.avg_delay_slots,
            "worst_delay_slots": row.worst_delay_slots,
            "peak_backlog": row.peak_backlog,
            "availability": row.availability,
        } for row in result.rows],
        "impatient_cost": result.impatient_cost,
        "impatient_delay": result.impatient_delay,
        "offline_cost": result.offline_cost,
        "offline_delay": result.offline_delay,
    }


def compute_fig6_t() -> dict:
    from repro.experiments.fig6_t_sweep import run_fig6_t

    result = run_fig6_t(days=3, t_values=(3, 6, 12, 24))
    return {
        "rows": [{
            "t_slots": row.t_slots,
            "time_avg_cost": row.time_avg_cost,
            "avg_delay_slots": row.avg_delay_slots,
            "worst_delay_slots": row.worst_delay_slots,
            "peak_backlog": row.peak_backlog,
        } for row in result.rows],
    }


def compute_fig7() -> dict:
    from repro.experiments.fig7_factors import run_fig7

    result = run_fig7(days=2, n_seeds=2)
    return {
        study: [{
            "label": row.label,
            "time_avg_cost": row.time_avg_cost,
            "avg_delay_slots": row.avg_delay_slots,
        } for row in rows]
        for study, rows in (("epsilon_rows", result.epsilon_rows),
                            ("battery_rows", result.battery_rows),
                            ("market_rows", result.market_rows))
    }


def compute_fig8() -> dict:
    from repro.experiments.fig8_penetration import run_fig8

    result = run_fig8(days=2)
    return {
        sweep: [{
            "x": row.x,
            "time_avg_cost": row.time_avg_cost,
            "avg_delay_slots": row.avg_delay_slots,
            "waste_mwh": row.waste_mwh,
        } for row in rows]
        for sweep, rows in (("penetration_rows", result.penetration_rows),
                            ("variation_rows", result.variation_rows))
    }


def compute_fig10() -> dict:
    from repro.experiments.fig10_scaling import run_fig10

    result = run_fig10(days=2)
    return {
        "rows": [{
            "beta": row.beta,
            "time_avg_cost": row.time_avg_cost,
            "cost_per_unit_demand": row.cost_per_unit_demand,
            "avg_delay_slots": row.avg_delay_slots,
            "availability": row.availability,
        } for row in result.rows],
    }


def compute_ablations() -> dict:
    from repro.experiments.ablations import run_ablations

    result = run_ablations(days=2)
    return {
        "rows": [{
            "study": row.study,
            "label": row.label,
            "time_avg_cost": row.time_avg_cost,
            "avg_delay_slots": row.avg_delay_slots,
            "availability": row.availability,
            "battery_ops": row.battery_ops,
        } for row in result.rows],
    }


def compute_fleet_fig6_t() -> dict:
    """The fig6 T-sweep metrics *through the fleet path*.

    Same scenarios as :func:`compute_fig6_t` (paper traces, tiny
    horizon), but expressed as declarative ``ScenarioSpec``s, run by
    the ``FleetRunner``, streamed into a ``ResultStore`` and
    aggregated into a ``SweepTable`` — pinning the whole
    spec → shard → store → table pipeline, not just the engine.
    """
    import tempfile

    from repro.fleet.runner import FleetRunner
    from repro.fleet.spec import ScenarioSpec, grid_specs
    from repro.fleet.store import ResultStore
    from repro.rng import DEFAULT_SEED

    template = ScenarioSpec(
        seed=DEFAULT_SEED,
        system={"preset": "paper", "days": 3},
        controller={"kind": "smartdpss"},
        trace={"kind": "paper", "seed": DEFAULT_SEED},
    )
    specs = grid_specs(template, "system.fine_slots_per_coarse",
                       [3, 6, 12, 24], seeds=(DEFAULT_SEED,))
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        FleetRunner(specs, store=store).run()
        table = store.sweep_table(
            name="fleet fig6 T-sweep",
            metrics=("time_avg_cost", "avg_delay_slots",
                     "worst_delay_slots", "peak_backlog",
                     "availability"))
    return {
        "rows": [{
            "t_slots": point.value,
            "n_seeds": point.n_seeds,
            **point.metrics,
        } for point in table.points],
    }


def compute_fleet_offline_gap() -> dict:
    """A tiny fleet V-sweep with the offline-gap column pinned.

    Exercises the whole batched-baseline chain — structure-compiled LP
    solves, vectorized plan replay, the gap arithmetic — through the
    ``FleetRunner(offline_gap=True)`` front door, and pins both the
    policy metrics and the new ``offline_cost`` / ``offline_gap``
    columns end to end (runner → store → table).
    """
    import tempfile

    from repro.fleet.runner import FleetRunner
    from repro.fleet.spec import ScenarioSpec, grid_specs
    from repro.fleet.store import ResultStore

    template = ScenarioSpec(
        system={"preset": "paper", "days": 1,
                "fine_slots_per_coarse": 6},
        controller={"kind": "smartdpss"},
        trace={"kind": "stream"},
    )
    specs = grid_specs(template, "controller.v", [0.1, 1.0, 5.0],
                       seeds=(0, 1))
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        FleetRunner(specs, store=store, offline_gap=True).run()
        table = store.sweep_table(
            name="fleet offline gap",
            metrics=("time_avg_cost", "avg_delay_slots",
                     "offline_cost", "offline_gap"))
    return {
        "rows": [{
            "v": point.value,
            "n_seeds": point.n_seeds,
            **point.metrics,
        } for point in table.points],
    }


def compute_fleet_fig9() -> dict:
    """The Fig. 9 robustness band *through the fleet path*.

    A tiny-horizon :func:`run_fig9`: Impatient baseline plus a
    SmartDPSS V-sweep, each paired with a streamed noisy-observation
    twin by ``FleetRunner(robustness=...)``.  Pins the whole streamed
    observation chain — per-chunk noise substreams, carry state, the
    clean/noisy pairing, and the reduction arithmetic — so any drift
    in how controllers *see* traces (as opposed to what physics bills)
    fails here first.
    """
    from repro.experiments.fig9_robustness import run_fig9

    result = run_fig9(days=1, fine_slots_per_coarse=6,
                            v_values=(0.1, 1.0, 5.0))
    lo, hi = result.difference_band
    return {
        "rows": [{
            "v": row.v,
            "clean_cost": row.clean_cost,
            "noisy_cost": row.noisy_cost,
            "clean_reduction": row.clean_reduction,
            "noisy_reduction": row.noisy_reduction,
            "reduction_difference": row.reduction_difference,
        } for row in result.rows],
        "rel_error": result.rel_error,
        "difference_band": [lo, hi],
    }


EXPERIMENTS = {
    "fig5_traces": compute_fig5,
    "fig6_v_sweep": compute_fig6_v,
    "fig6_t_sweep": compute_fig6_t,
    "fig7_factors": compute_fig7,
    "fig8_penetration": compute_fig8,
    "fig10_scaling": compute_fig10,
    "ablations": compute_ablations,
    "fleet_fig6_t_sweep": compute_fleet_fig6_t,
    "fleet_offline_gap": compute_fleet_offline_gap,
    "fleet_fig9_robustness": compute_fleet_fig9,
}


def assert_matches(actual, golden, path: str = "") -> None:
    """Recursive comparison with a relative float tolerance."""
    if isinstance(golden, dict):
        assert isinstance(actual, dict), f"{path}: type changed"
        assert set(actual) == set(golden), (
            f"{path}: keys {sorted(actual)} != {sorted(golden)}")
        for key in golden:
            assert_matches(actual[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list) and len(actual) == len(golden), (
            f"{path}: length changed")
        for index, (a, g) in enumerate(zip(actual, golden)):
            assert_matches(a, g, f"{path}[{index}]")
    elif isinstance(golden, float):
        scale = max(abs(golden), 1.0)
        assert abs(actual - golden) <= REL_TOL * scale, (
            f"{path}: {actual!r} drifted from golden {golden!r}")
    else:
        assert actual == golden, (
            f"{path}: {actual!r} != golden {golden!r}")


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_golden_metrics(name: str) -> None:
    """Recompute the tiny-horizon experiment; compare to the fixture."""
    fixture = GOLDEN_DIR / f"{name}.json"
    assert fixture.exists(), (
        f"missing golden fixture {fixture}; run "
        f"`PYTHONPATH=src python {__file__} --regen`")
    golden = json.loads(fixture.read_text(encoding="utf-8"))
    assert_matches(EXPERIMENTS[name](), golden, path=name)


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, compute in sorted(EXPERIMENTS.items()):
        payload = compute()
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
