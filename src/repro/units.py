"""Unit helpers for the SmartDPSS reproduction.

The whole library works in a single consistent unit system:

* energy:  **MWh**
* power:   **MW** (equal to MWh per one-hour slot)
* money:   **USD**
* prices:  **USD per MWh**
* time:    fine-grained slots (``slot_hours`` hours each, default 1 h)

The paper quotes UPS battery capacity in "minutes of peak datacenter
demand" (Section VI-A uses 0 / 15 / 30 minutes); the converters here
translate between that convention and MWh so configurations read like the
paper.
"""

from __future__ import annotations
from repro.exceptions import ConfigurationError

MINUTES_PER_HOUR = 60.0
HOURS_PER_DAY = 24.0

#: Convenience alias that makes parameter tables self-documenting.
KW_PER_MW = 1000.0


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


def battery_mwh_to_minutes(mwh: float, peak_demand_mw: float) -> float:
    """Inverse of :func:`battery_minutes_to_mwh`.

    >>> battery_mwh_to_minutes(1.0, peak_demand_mw=2.0)
    30.0
    """
    if mwh < 0:
        raise ConfigurationError(f"battery energy must be >= 0, got {mwh}")
    if peak_demand_mw <= 0:
        raise ConfigurationError(f"peak demand must be > 0, got {peak_demand_mw}")
    return mwh / peak_demand_mw * MINUTES_PER_HOUR


def mw_to_mwh(mw: float, slot_hours: float = 1.0) -> float:
    """Energy delivered by a constant power draw over one slot."""
    if slot_hours <= 0:
        raise ConfigurationError(f"slot length must be > 0 hours, got {slot_hours}")
    return mw * slot_hours


def mwh_to_mw(mwh: float, slot_hours: float = 1.0) -> float:
    """Average power corresponding to an energy amount over one slot."""
    if slot_hours <= 0:
        raise ConfigurationError(f"slot length must be > 0 hours, got {slot_hours}")
    return mwh / slot_hours


def slots_to_hours(slots: float, slot_hours: float = 1.0) -> float:
    """Convert a slot count (e.g. a queueing delay) to hours."""
    return slots * slot_hours


def hours_to_slots(hours: float, slot_hours: float = 1.0) -> float:
    """Convert hours to (possibly fractional) slots."""
    if slot_hours <= 0:
        raise ConfigurationError(f"slot length must be > 0 hours, got {slot_hours}")
    return hours / slot_hours


def dollars_per_mwh_to_per_kwh(price: float) -> float:
    """Convert $/MWh to $/kWh (for human-readable reporting)."""
    return price / KW_PER_MW
