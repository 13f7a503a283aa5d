"""Unit helpers for the SmartDPSS reproduction.

The whole library works in a single consistent unit system:

* energy:  **MWh**
* power:   **MW** (equal to MWh per one-hour slot)
* money:   **USD**
* prices:  **USD per MWh**
* time:    fine-grained slots (``slot_hours`` hours each, default 1 h)

The paper quotes UPS battery capacity in "minutes of peak datacenter
demand" (Section VI-A uses 0 / 15 / 30 minutes);
:func:`battery_minutes_to_mwh` translates that convention to MWh so
configurations read like the paper.
"""

from __future__ import annotations
from repro.exceptions import ConfigurationError

MINUTES_PER_HOUR = 60.0


def battery_minutes_to_mwh(minutes: float, peak_demand_mw: float) -> float:
    """Convert a battery size in minutes-of-peak-demand to MWh.

    ``minutes`` is how long the battery could power the datacenter's peak
    demand by itself; this is the sizing convention used throughout the
    paper (e.g. ``Bmax = 15`` minutes).

    >>> battery_minutes_to_mwh(30.0, peak_demand_mw=2.0)
    1.0
    """
    if minutes < 0:
        raise ConfigurationError(f"battery minutes must be >= 0, got {minutes}")
    if peak_demand_mw < 0:
        raise ConfigurationError(f"peak demand must be >= 0, got {peak_demand_mw}")
    return peak_demand_mw * minutes / MINUTES_PER_HOUR
