"""Simulation results: everything one run produced.

:class:`SimulationResult` bundles the recorded series, the delay ledger
statistics, market/battery accounting and the configuration that
produced them, and exposes the headline quantities the paper reports
(cost, delay, availability, renewable utilization, waste).  It is a
plain value object; the per-slot ``series`` hold everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config.system import SystemConfig
from repro.sim.metrics import (
    CostBreakdown,
    availability,
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
    def renewable_utilization(self) -> float:
        """Fraction of renewable production actually used."""
        return renewable_utilization(self.series)

    @property
    def waste_total(self) -> float:
        """Total wasted energy ``Σ W(τ)`` (MWh)."""
        return float(self.series["waste"].sum())
