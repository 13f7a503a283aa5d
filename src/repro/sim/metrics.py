"""Cost and service metrics derived from recorded series.

The paper's headline metric is the *time-average operational cost*
(eq. 10) — the sum of long-term purchases, real-time purchases, battery
operation cost and wasted energy, divided by the horizon.  This module
provides that decomposition plus the service-quality metrics the
evaluation section reports (average/worst delay, availability,
renewable utilization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class CostBreakdown:
    """Totals of the four cost components over a horizon ($)."""

    long_term: float
    real_time: float
    battery: float
    waste: float

    @property
    def total(self) -> float:
        """Total operational cost over the horizon."""
        return self.long_term + self.real_time + self.battery + self.waste

    def time_average(self, n_slots: int) -> float:
        """The paper's objective: average cost per fine slot."""
        if n_slots <= 0:
            raise ConfigurationError(f"n_slots must be > 0, got {n_slots}")
        return self.total / n_slots

    def as_dict(self) -> dict[str, float]:
        """Component dictionary (for tables and JSON dumps)."""
        return {
            "long_term": self.long_term,
            "real_time": self.real_time,
            "battery": self.battery,
            "waste": self.waste,
            "total": self.total,
        }


def summarize_costs(series: dict[str, np.ndarray]) -> CostBreakdown:
    """Fold recorded per-slot cost series into a breakdown."""
    return CostBreakdown(
        long_term=float(series["cost_lt"].sum()),
        real_time=float(series["cost_rt"].sum()),
        battery=float(series["cost_battery"].sum()),
        waste=float(series["cost_waste"].sum()),
    )


def availability(series: dict[str, np.ndarray]) -> float:
    """Fraction of delay-sensitive energy served on time.

    The paper's availability requirement is absolute (battery reserve
    guarantees ride-through); a value below 1.0 flags a configuration
    where even ``Pgrid`` plus the battery could not carry the
    delay-sensitive load.
    """
    served = float(series["served_ds"].sum())
    unserved = float(series["unserved_ds"].sum())
    demand = served + unserved
    if demand == 0:
        return 1.0
    return served / demand


def renewable_utilization(series: dict[str, np.ndarray]) -> float:
    """Fraction of renewable production neither curtailed nor wasted.

    Waste is attributed to renewables first (grid purchases are
    deliberate, renewable arrival is not), matching how the paper
    discusses "wasting renewable energy".
    """
    produced = float(series["renewable_used"].sum()
                     + series["renewable_curtailed"].sum())
    if produced == 0:
        return 1.0
    lost = float(series["renewable_curtailed"].sum())
    lost += min(float(series["waste"].sum()),
                float(series["renewable_used"].sum()))
    return max(0.0, 1.0 - lost / produced)
