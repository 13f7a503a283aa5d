"""Myopic price-threshold heuristic (extra baseline for ablations).

A single-timescale policy that captures the folk wisdom "run batch jobs
when power is cheap" without any Lyapunov machinery: it keeps a running
estimate of the real-time price distribution and serves the backlog
only when the current price falls below a configurable quantile (or
when renewable surplus is available for free).  Long-term purchasing
covers only the delay-sensitive forecast.

Comparing SmartDPSS against this heuristic (the ablations experiment,
``python -m repro.experiments ablations``) separates how much of the
paper's gain comes from the *two-timescale Lyapunov structure* versus
from generic price-awareness.
"""

from __future__ import annotations

import bisect

from repro.config.system import SystemConfig
from repro.core.interfaces import (
    CoarseObservation,
    Controller,
    FineObservation,
    RealTimeDecision,
)
from repro.exceptions import ConfigurationError


class _RunningQuantile:
    """Exact running quantile over a bounded history (insertion sort)."""

    def __init__(self, quantile: float, max_history: int = 2000):
        if not 0.0 < quantile < 1.0:
            raise ConfigurationError(f"quantile must be in (0,1), got {quantile}")
        self.quantile = quantile
        self.max_history = max_history
        self._sorted: list[float] = []
        self._order: list[float] = []

    def observe(self, value: float) -> None:
        bisect.insort(self._sorted, value)
        self._order.append(value)
        if len(self._order) > self.max_history:
            oldest = self._order.pop(0)
            index = bisect.bisect_left(self._sorted, oldest)
            self._sorted.pop(index)

    @property
    def value(self) -> float:
        if not self._sorted:
            return float("inf")
        index = int(self.quantile * (len(self._sorted) - 1))
        return self._sorted[index]


class MyopicPriceThreshold(Controller):
    """Serve deferrable load when the price is in its cheap tail."""

    def __init__(self, serve_quantile: float = 0.3,
                 max_wait_slots: int = 48):
        self.serve_quantile = serve_quantile
        self.max_wait_slots = max_wait_slots
        self.system: SystemConfig | None = None
        self._quantile = _RunningQuantile(serve_quantile)
        self._slots_with_backlog = 0

    @property
    def name(self) -> str:
        return f"Myopic(q={self.serve_quantile:g})"

    def begin_horizon(self, system: SystemConfig) -> None:
        self.system = system
        self._quantile = _RunningQuantile(self.serve_quantile)
        self._slots_with_backlog = 0

    def plan_long_term(self, obs: CoarseObservation) -> float:
        assert self.system is not None, "begin_horizon() not called"
        rate = max(0.0, obs.demand_ds - obs.renewable)
        rate = min(rate, self.system.p_grid)
        return rate * self.system.fine_slots_per_coarse

    def real_time(self, obs: FineObservation) -> RealTimeDecision:
        assert self.system is not None, "begin_horizon() not called"
        system = self.system
        self._quantile.observe(obs.price_rt)
        if obs.backlog > 1e-12:
            self._slots_with_backlog += 1
        else:
            self._slots_with_backlog = 0

        surplus = max(0.0, obs.long_term_rate + obs.renewable
                      - obs.demand_ds)
        cheap = obs.price_rt <= self._quantile.value
        overdue = self._slots_with_backlog >= self.max_wait_slots
        serve = obs.backlog > 1e-12 and (cheap or overdue
                                         or surplus > 1e-12)
        gamma = 1.0 if serve else 0.0
        sdt = min(obs.backlog, system.s_dt_max) if serve else 0.0
        needed = obs.demand_ds + sdt - obs.long_term_rate - obs.renewable
        grt = min(max(0.0, needed), obs.grid_headroom,
                  obs.supply_headroom)
        return RealTimeDecision(grt=grt, gamma=gamma)
