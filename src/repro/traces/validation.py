"""Statistical validation of synthetic traces against paper properties.

The substitution argument in DESIGN.md §3 rests on the synthetic traces
matching the *statistical features* the algorithm reacts to.  This
module makes those features explicit and checkable:

* demand: diurnal cycle (daytime > overnight), bounded peaks, positive
  delay-tolerant share, weekday/weekend contrast;
* solar: zero at night, midday peak, day-to-day intermittency;
* prices: double-timescale structure with ``E[prt] > E[plt]``, evening
  peak, persistent (positively autocorrelated) noise, occasional
  spikes.

:func:`validate_paper_traces` runs every check and returns structured
results; the test suite pins them, so a regression in any generator
is caught as a statistics change rather than as a mysterious shift in
every experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traces.base import TraceSet


@dataclass(frozen=True)
class ValidationCheck:
    """One statistical property check."""

    name: str
    holds: bool
    observed: float
    requirement: str

    def __str__(self) -> str:
        status = "OK " if self.holds else "FAIL"
        return (f"[{status}] {self.name}: {self.observed:.4f} "
                f"({self.requirement})")


def hourly_profile(values: np.ndarray) -> np.ndarray:
    """Mean value per hour of day (assumes 1-hour slots)."""
    hours = np.arange(values.size) % 24
    return np.array([values[hours == h].mean() for h in range(24)])


def lag1_autocorrelation(values: np.ndarray) -> float:
    """Lag-1 autocorrelation (0 for white noise, →1 for persistence)."""
    if values.size < 3:
        return 0.0
    centered = values - values.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0:
        return 0.0
    return float(np.dot(centered[1:], centered[:-1]) / denom)


def daily_totals(values: np.ndarray) -> np.ndarray:
    """Per-day sums (truncates a partial trailing day)."""
    n_days = values.size // 24
    return values[:n_days * 24].reshape(n_days, 24).sum(axis=1)


def validate_paper_traces(traces: TraceSet) -> list[ValidationCheck]:
    """Run every statistical property check on a trace bundle."""
    checks: list[ValidationCheck] = []

    def add(name: str, holds: bool, observed: float,
            requirement: str) -> None:
        checks.append(ValidationCheck(name=name, holds=bool(holds),
                                      observed=float(observed),
                                      requirement=requirement))

    demand = traces.demand_total
    profile = hourly_profile(demand)
    day_mean = profile[10:19].mean()
    night_mean = profile[1:6].mean()
    add("demand diurnal ratio", day_mean > night_mean * 1.1,
        day_mean / night_mean, "> 1.1 (daytime peak)")

    dt_share = float(traces.demand_dt.sum() / demand.sum())
    add("delay-tolerant share", 0.1 < dt_share < 0.6, dt_share,
        "in (0.1, 0.6) (MapReduce is a material minority)")

    add("demand persistence",
        lag1_autocorrelation(demand) > 0.3,
        lag1_autocorrelation(demand), "> 0.3 (not white noise)")

    solar = traces.renewable
    solar_profile = hourly_profile(solar)
    night_solar = solar_profile[[0, 1, 2, 3, 22, 23]].sum()
    add("solar dark at night", night_solar < 1e-9, night_solar,
        "= 0 (no generation at night)")
    add("solar midday peak",
        int(np.argmax(solar_profile)) in range(10, 15),
        float(np.argmax(solar_profile)), "argmax in [10, 14]")
    if solar.sum() > 0:
        day_sums = daily_totals(solar)
        intermittency = float(day_sums.std() / day_sums.mean())
        add("solar day-to-day intermittency", intermittency > 0.2,
            intermittency, "> 0.2 (cloudy vs clear days)")

    prt = traces.price_rt
    plt = traces.price_lt_hourly
    premium = float(prt.mean() / plt.mean())
    add("real-time price premium", premium > 1.0, premium,
        "> 1 (E[prt] > E[plt], Section II-B.2)")

    price_profile = hourly_profile(prt)
    add("price evening peak",
        price_profile[17:21].mean() > price_profile[2:6].mean(),
        price_profile[17:21].mean() / price_profile[2:6].mean(),
        "evening > overnight")

    add("price persistence", lag1_autocorrelation(prt) > 0.3,
        lag1_autocorrelation(prt), "> 0.3 (persistent noise)")

    spike_ratio = float(np.percentile(prt, 99.5) / np.median(prt))
    add("price spikes present", spike_ratio > 1.5, spike_ratio,
        "99.5th percentile > 1.5x median")

    return checks


def all_valid(checks: list[ValidationCheck]) -> bool:
    """Whether every property check holds."""
    return all(check.holds for check in checks)
