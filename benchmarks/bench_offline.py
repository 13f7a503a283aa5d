"""Offline-baseline benchmark: batched LP solves + vectorized replay.

Measures the marginal cost of the fleet ``offline_gap`` column — the
per-scenario price of computing an offline-clairvoyant baseline on a
fleet whose trace block is already materialized for the policy run —
and writes ``BENCH_offline.json`` at the repo root (see
benchmarks/README.md for how to read it).

Two timed stages over a ``B``-scenario paper-trace block
(1-day horizon, T=6):

1. **Batched solve** — ``solve_offline_plan_batch``: the LP sparsity
   is compiled once per system, then per-scenario cost/RHS vectors
   are stamped into the shared structure and solved on the fast
   in-process HiGHS path.
2. **Batched replay** — one ``StreamingBatchSimulator`` pass replays
   all ``B`` plans through the real engine via ``OfflinePlanBatch``,
   producing the cost the gap column compares against.

The acceptance target: ``B / (solve + replay)`` >= 10^3 scenarios/s
at ``B >= 64``.  Before timing, an equivalence gate re-solves every
scenario through scalar ``solve_offline_plan`` and replays it through
the scalar ``Simulator``: batched LP objectives must agree to <=1e-9
(plan arrays bitwise) and the replayed ``ScenarioMetrics`` records
must be identical — the benchmark refuses to report a throughput
number for a path that drifted.

Run::

    PYTHONPATH=src python benchmarks/bench_offline.py            # full
    PYTHONPATH=src python benchmarks/bench_offline.py --quick    # small
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.baselines.offline import (  # noqa: E402
    OfflineOptimal,
    OfflinePlanBatch,
    solve_offline_plan,
    solve_offline_plan_batch,
)
from repro.config.presets import paper_system_config  # noqa: E402
from repro.fleet.engine import (  # noqa: E402
    ScenarioMetrics,
    StreamingBatchSimulator,
    StreamRunSpec,
)
from repro.fleet.stream import ArrayTraceStream  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.traces.base import TraceBlock  # noqa: E402
from repro.traces.library import make_paper_traces  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_offline.json"

#: Throughput floor for the gap column's marginal cost (scenarios/s).
TARGET_SCENARIOS_PER_S = 1_000.0

#: Batched-vs-scalar LP objective agreement required by the gate.
OBJECTIVE_TOL = 1e-9


def _build_fleet(batch: int, days: int, t_slots: int):
    system = paper_system_config(days=days,
                                 fine_slots_per_coarse=t_slots)
    sets = [make_paper_traces(system, seed=seed)
            for seed in range(batch)]
    block = TraceBlock.from_tracesets(sets)
    return system, sets, block


def _replay_batch(system, sets, plans) -> list[dict]:
    runs = [StreamRunSpec(system=system,
                          controller=OfflineOptimal(None, plan=plan),
                          stream=ArrayTraceStream(traces))
            for traces, plan in zip(sets, plans)]
    return ScenarioMetrics.rows(StreamingBatchSimulator(
        runs, controller=OfflinePlanBatch(plans),
        chunk_coarse=system.num_coarse_slots).run())


def check_equivalence(system, sets, plans, batch_records
                      ) -> dict:
    """Scalar cross-check of every scenario in the batch.

    Returns the gate summary; raises ``AssertionError`` on any drift
    so a broken batched path can never publish a throughput number.
    """
    plan_fields = ("gbef", "grt", "sdt", "charge", "discharge",
                   "waste", "battery", "backlog")
    max_objective_diff = 0.0
    for traces, batch_plan, batch_record in zip(sets, plans,
                                                batch_records):
        scalar_plan = solve_offline_plan(system, traces)
        diff = abs(scalar_plan.lp_objective - batch_plan.lp_objective)
        max_objective_diff = max(max_objective_diff, diff)
        assert diff <= OBJECTIVE_TOL, (
            f"LP objective drift {diff:.3e} > {OBJECTIVE_TOL:.0e}")
        for name in plan_fields:
            assert np.array_equal(getattr(scalar_plan, name),
                                  getattr(batch_plan, name)), (
                f"plan field {name!r} not bitwise identical")
        result = Simulator(system,
                           OfflineOptimal(None, plan=scalar_plan),
                           traces).run()
        scalar_record = ScenarioMetrics.from_result(
            result, seed=traces.meta.get("seed")).as_dict()
        assert scalar_record == batch_record, (
            f"replayed record drifted for seed "
            f"{traces.meta.get('seed')}")
    return {
        "scenarios_checked": len(sets),
        "max_objective_diff": max_objective_diff,
        "plans_bitwise_identical": True,
        "replayed_records_identical": True,
    }


def measure(batch: int, days: int, t_slots: int, repeats: int
            ) -> dict:
    system, sets, block = _build_fleet(batch, days, t_slots)

    # Warm-up: compiles the LP structure (lru-cached per system) and
    # pre-imports the HiGHS bindings so the timed loop sees the
    # steady-state cost a fleet run pays per extra trace block.
    plans = solve_offline_plan_batch(system, block)
    batch_records = _replay_batch(system, sets, plans)

    solve_s = []
    replay_s = []
    for _ in range(repeats):
        start = time.perf_counter()
        plans = solve_offline_plan_batch(system, block)
        solve_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        _replay_batch(system, sets, plans)
        replay_s.append(time.perf_counter() - start)
    best_solve = min(solve_s)
    best_replay = min(replay_s)
    throughput = batch / (best_solve + best_replay)
    print(f"  B={batch} horizon={system.horizon_slots}: solve "
          f"{best_solve * 1e3:6.1f} ms, replay "
          f"{best_replay * 1e3:6.1f} ms -> {throughput:.0f} "
          f"scenarios/s")

    gate = check_equivalence(system, sets, plans, batch_records)
    return {
        "batch_size": batch,
        "horizon_slots": system.horizon_slots,
        "repeats": repeats,
        "solve_s": round(best_solve, 6),
        "replay_s": round(best_replay, 6),
        "solve_ms_per_scenario": round(best_solve / batch * 1e3, 4),
        "replay_ms_per_scenario": round(best_replay / batch * 1e3, 4),
        "scenarios_per_s": round(throughput, 1),
        "equivalence": gate,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny batch, no JSON output")
    args = parser.parse_args(argv)

    if args.quick:
        row = measure(batch=8, days=1, t_slots=6, repeats=2)
        target_met = None  # B < 64: throughput gate not applicable
    else:
        row = measure(batch=64, days=1, t_slots=6, repeats=5)
        target_met = row["scenarios_per_s"] >= TARGET_SCENARIOS_PER_S

    payload = {
        "workload": ("batched offline-clairvoyant baseline on a "
                     f"B={row['batch_size']} paper-trace block "
                     "(1-day horizon, T=6): structure-stamped LP "
                     "solves + one vectorized plan replay"),
        "target": (f">= {TARGET_SCENARIOS_PER_S:.0f} scenarios/s for "
                   "solve+replay at B>=64, gated on batched == scalar "
                   "(objectives <= 1e-9, plans bitwise, replayed "
                   "records identical)"),
        "target_met": target_met,
        "result": row,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    if not args.quick:
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")
        print(f"\nwrote {OUTPUT} (target met: {target_met})")
    return 0 if target_met in (True, None) else 1


if __name__ == "__main__":
    raise SystemExit(main())
