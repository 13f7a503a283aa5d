"""Hour-of-day series utilities.

Several experiments and examples reduce per-slot series to diurnal
profiles (where does SmartDPSS buy? when does the battery cycle?).
These helpers centralize that binning so every consumer computes it
the same way (assuming the library's 1-hour fine slots).
"""

from __future__ import annotations

import numpy as np

from repro.sim.results import SimulationResult
from repro.exceptions import ConfigurationError

HOURS_PER_DAY = 24


def by_hour(values: np.ndarray, reduce: str = "mean") -> np.ndarray:
    """Reduce a per-slot series to a 24-entry hour-of-day profile."""
    values = np.asarray(values, dtype=float)
    hours = np.arange(values.size) % HOURS_PER_DAY
    reducer = {"mean": np.mean, "sum": np.sum, "max": np.max}
    if reduce not in reducer:
        raise ConfigurationError(f"unknown reducer {reduce!r}")
    fold = reducer[reduce]
    return np.array([fold(values[hours == h]) if np.any(hours == h)
                     else 0.0 for h in range(HOURS_PER_DAY)])


def purchase_profile(result: SimulationResult) -> dict[str, np.ndarray]:
    """Hourly purchase profile: advance vs real-time energy by hour."""
    return {
        "long_term": by_hour(result.series["gbef_rate"], "mean"),
        "real_time": by_hour(result.series["grt"], "mean"),
    }


def battery_cycle_profile(result: SimulationResult,
                          ) -> dict[str, np.ndarray]:
    """Hourly battery behaviour: when it charges and discharges."""
    return {
        "charge": by_hour(result.series["charge"], "mean"),
        "discharge": by_hour(result.series["discharge"], "mean"),
        "level": by_hour(result.series["battery_level"], "mean"),
    }


def overnight_share(values: np.ndarray,
                    overnight_hours: tuple[int, ...] = (0, 1, 2, 3,
                                                        4, 5),
                    ) -> float:
    """Fraction of a series' total falling in the overnight hours."""
    profile = by_hour(values, "sum")
    total = float(profile.sum())
    if total == 0:
        return 0.0
    return float(profile[list(overnight_hours)].sum()) / total
