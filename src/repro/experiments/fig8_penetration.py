"""Fig. 8 — cost versus renewable penetration and demand variation.

Two sweeps at ``V = 1, T = 24, ε = 0.5, Bmax = 15 min``:

* **renewable penetration** 0 → 100% of total demand: the operation
  cost should fall sharply, since renewable energy is harvested
  cost-free (the paper excludes construction cost);
* **demand variation**: demand fluctuations stretched around a fixed
  mean.  Cost should rise mildly with variation — bigger approximation
  errors, harder procurement — but the battery and the two-timescale
  markets absorb most of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.experiments.common import (
    PAPER_PENETRATION_SWEEP,
    PAPER_VARIATION_SWEEP,
    build_scenario,
    paper_spec,
    run_fleet,
)
from repro.rng import DEFAULT_SEED
from repro.traces.scaling import reshape_demand_variation


@dataclass(frozen=True)
class SweepRow:
    """One sweep point (x value, cost, delay, waste)."""

    x: float
    time_avg_cost: float
    avg_delay_slots: float
    waste_mwh: float


@dataclass(frozen=True)
class Fig8Result:
    """Both Fig. 8 sweeps."""

    penetration_rows: tuple[SweepRow, ...]
    variation_rows: tuple[SweepRow, ...]

    @property
    def penetration_cost_decreasing(self) -> bool:
        """Cost should fall as penetration rises."""
        costs = [r.time_avg_cost for r in self.penetration_rows]
        return costs[-1] < costs[0]

    @property
    def variation_cost_increasing(self) -> bool:
        """Cost should rise (mildly) with demand variation."""
        costs = [r.time_avg_cost for r in self.variation_rows]
        return costs[-1] > costs[0]


def run_fig8(seed: int = DEFAULT_SEED, days: int = 31) -> Fig8Result:
    """Run the penetration and variation sweeps as one fleet.

    Each sweep point is a ``paper`` trace recipe carrying its reshape
    (``renewable_penetration`` / ``demand_variation``).  The variation
    sweep's x-axis, the reshaped demand's standard deviation, is a
    trace statistic, so it comes from the same transform applied to
    the in-memory base traces.
    """
    specs = [paper_spec(seed, days, trace={"renewable_penetration": level})
             for level in PAPER_PENETRATION_SWEEP]
    specs.extend(paper_spec(seed, days, trace={"demand_variation": scale})
                 for scale in PAPER_VARIATION_SWEEP)
    metrics = run_fleet(specs)
    base = build_scenario(seed=seed, days=days).traces
    demand_std = [reshape_demand_variation(base, scale).demand_std
                  for scale in PAPER_VARIATION_SWEEP]
    n_pen = len(PAPER_PENETRATION_SWEEP)

    penetration_rows = [
        SweepRow(x=level,
                 time_avg_cost=m["time_avg_cost"],
                 avg_delay_slots=m["avg_delay_slots"],
                 waste_mwh=m["waste_mwh"])
        for level, m in zip(PAPER_PENETRATION_SWEEP, metrics)]

    variation_rows = [
        SweepRow(x=std,
                 time_avg_cost=m["time_avg_cost"],
                 avg_delay_slots=m["avg_delay_slots"],
                 waste_mwh=m["waste_mwh"])
        for std, m in zip(demand_std, metrics[n_pen:])]

    return Fig8Result(penetration_rows=tuple(penetration_rows),
                      variation_rows=tuple(variation_rows))


def render(result: Fig8Result) -> str:
    """Printed form of Fig. 8."""
    pen_rows = [[f"{r.x:.0%}", r.time_avg_cost, r.avg_delay_slots,
                 r.waste_mwh] for r in result.penetration_rows]
    var_rows = [[f"{r.x:.3f}", r.time_avg_cost, r.avg_delay_slots,
                 r.waste_mwh] for r in result.variation_rows]
    parts = [
        format_table(["penetration", "cost/slot", "avg delay", "waste"],
                     pen_rows,
                     title="Fig 8 — renewable penetration sweep"),
        format_table(["demand std", "cost/slot", "avg delay", "waste"],
                     var_rows,
                     title="Fig 8 — demand variation sweep"),
        "shape checks: cost decreasing in penetration = "
        f"{result.penetration_cost_decreasing}, cost increasing in "
        f"variation = {result.variation_cost_increasing}",
    ]
    return "\n\n".join(parts)
