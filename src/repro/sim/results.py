"""Simulation results: everything one run produced.

:class:`SimulationResult` bundles the recorded series, the delay ledger
statistics, market/battery accounting and the configuration that
produced them, and exposes the summary quantities the paper's figures
plot.  It is a plain value object — experiments keep lists of results
and tabulate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config.system import SystemConfig
from repro.sim.metrics import (
    CostBreakdown,
    availability,
    battery_throughput,
    renewable_utilization,
    summarize_costs,
)
from repro.workload.queue import DelayStats


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one horizon simulation."""

    controller_name: str
    system: SystemConfig
    series: dict[str, np.ndarray]
    delay_stats: DelayStats
    battery_operations: int
    lt_energy: float
    rt_energy: float
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Cost metrics (paper eq. 10)
    # ------------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        """Simulated fine slots."""
        return int(self.series["cost_total"].size)

    @property
    def costs(self) -> CostBreakdown:
        """Cost component totals."""
        return summarize_costs(self.series)

    @property
    def total_cost(self) -> float:
        """Total operational cost over the horizon ($)."""
        return self.costs.total

    @property
    def time_average_cost(self) -> float:
        """The paper's objective: mean cost per fine slot ($/slot)."""
        return self.costs.time_average(self.n_slots)

    # ------------------------------------------------------------------
    # Service metrics
    # ------------------------------------------------------------------

    @property
    def average_delay_slots(self) -> float:
        """Energy-weighted mean delay of delay-tolerant service."""
        return self.delay_stats.average_delay

    def average_delay_hours(self) -> float:
        """Mean delay converted to hours."""
        return self.average_delay_slots * self.system.slot_hours

    @property
    def worst_delay_slots(self) -> int:
        """Largest realized delay (compare against λmax)."""
        return self.delay_stats.max_delay

    @property
    def availability(self) -> float:
        """Fraction of delay-sensitive demand served on time."""
        return availability(self.series)

    @property
    def unserved_ds_total(self) -> float:
        """Total delay-sensitive energy not served (MWh)."""
        return float(self.series["unserved_ds"].sum())

    @property
    def renewable_utilization(self) -> float:
        """Fraction of renewable production actually used."""
        return renewable_utilization(self.series)

    @property
    def waste_total(self) -> float:
        """Total wasted energy ``Σ W(τ)`` (MWh)."""
        return float(self.series["waste"].sum())

    @property
    def battery_throughput(self) -> float:
        """Energy cycled through the UPS (MWh)."""
        return battery_throughput(self.series)

    @property
    def final_backlog(self) -> float:
        """Backlog left at the horizon end (MWh)."""
        return float(self.series["backlog"][-1])

    @property
    def peak_backlog(self) -> float:
        """Largest backlog observed (compare against Qmax)."""
        return float(self.series["backlog"].max())

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """One-row summary of the headline metrics."""
        return {
            "time_avg_cost": self.time_average_cost,
            "total_cost": self.total_cost,
            "cost_lt": self.costs.long_term,
            "cost_rt": self.costs.real_time,
            "cost_battery": self.costs.battery,
            "cost_waste": self.costs.waste,
            "avg_delay_slots": self.average_delay_slots,
            "worst_delay_slots": float(self.worst_delay_slots),
            "availability": self.availability,
            "waste_mwh": self.waste_total,
            "battery_ops": float(self.battery_operations),
            "renewable_utilization": self.renewable_utilization,
            "peak_backlog": self.peak_backlog,
            "final_backlog": self.final_backlog,
        }
