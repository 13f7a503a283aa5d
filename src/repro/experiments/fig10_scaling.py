"""Fig. 10 — scalability under system expansion ``β``.

The paper expands demand and renewables to ``β ∈ {1, 2, 5, 10}`` times
the current scale while the UPS battery stays fixed ("due to limits of
space and capital cost"), and observes that total cost grows *almost
linearly, even sublinearly* — the increase rate slows as the system
grows.  Grid-side limits (``Pgrid``, the demand caps) are datacenter
infrastructure and scale with the build-out; only storage is frozen.

Reported here: time-average cost per ``β``, the normalized cost per
unit of demand (which should *fall* with ``β``), and the growth ratio
between consecutive sweep points.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.config.presets import paper_controller_config
from repro.core.smartdpss import SmartDPSS
from repro.experiments.common import (
    PAPER_BETA_SWEEP,
    build_scenario,
)
from repro.rng import DEFAULT_SEED
from repro.sim.batch import RunSpec, simulate_many
from repro.traces.scaling import expand_system


@dataclass(frozen=True)
class Fig10Row:
    """One expansion point."""

    beta: float
    time_avg_cost: float
    cost_per_unit_demand: float
    avg_delay_slots: float
    availability: float


@dataclass(frozen=True)
class Fig10Result:
    """The full Fig. 10 dataset."""

    rows: tuple[Fig10Row, ...]

    @property
    def subscaling_holds(self) -> bool:
        """Cost growth should not exceed β growth (sublinear total)."""
        first = self.rows[0]
        return all(
            row.time_avg_cost <= row.beta * first.time_avg_cost * 1.05
            for row in self.rows)


def run_fig10(seed: int = DEFAULT_SEED,
              beta_values: tuple[float, ...] = PAPER_BETA_SWEEP,
              days: int = 31) -> Fig10Result:
    """Run the expansion sweep (battery fixed, grid scaled).

    Every β shares the two-timescale shape, so the whole sweep is one
    vectorized batch; :func:`build_fig10_specs` also feeds the batch
    engine's batch-vs-serial canary (``tests/test_sim_batch.py``), which
    replicates this fleet across seeds.
    """
    specs = build_fig10_specs(seed=seed, beta_values=beta_values,
                              days=days)
    results = simulate_many(specs)
    rows = []
    for spec, beta, result in zip(specs, beta_values, results):
        demand = float(spec.traces.demand_total.sum())
        rows.append(Fig10Row(
            beta=beta,
            time_avg_cost=result.time_average_cost,
            cost_per_unit_demand=result.total_cost / demand,
            avg_delay_slots=result.average_delay_slots,
            availability=result.availability,
        ))
    return Fig10Result(rows=tuple(rows))


def build_fig10_specs(seed: int = DEFAULT_SEED,
                      beta_values: tuple[float, ...] = PAPER_BETA_SWEEP,
                      days: int = 31) -> list[RunSpec]:
    """Run specs of the Fig. 10 expansion sweep for one seed."""
    scenario = build_scenario(seed=seed, days=days)
    specs = []
    for beta in beta_values:
        traces = expand_system(scenario.traces, beta)
        system = scenario.system.replace(
            p_grid=scenario.system.p_grid * beta,
            s_max=scenario.system.s_max * beta,
            d_dt_max=scenario.system.d_dt_max * beta,
            s_dt_max=scenario.system.s_dt_max * beta,
        )
        specs.append(RunSpec(system=system,
                             controller=SmartDPSS(
                                 paper_controller_config()),
                             traces=traces))
    return specs


def render(result: Fig10Result) -> str:
    """Printed form of Fig. 10."""
    rows = [[r.beta, r.time_avg_cost, r.cost_per_unit_demand,
             r.avg_delay_slots, r.availability] for r in result.rows]
    table = format_table(
        ["beta", "cost/slot", "$/MWh demand", "avg delay",
         "availability"],
        rows, title="Fig 10 — system expansion (battery fixed)")
    note = (f"shape check: total cost sublinear in beta = "
            f"{result.subscaling_holds}")
    return "\n".join([table, note])
