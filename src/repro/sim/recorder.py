"""Per-slot series recording.

The recorder pre-allocates one float array per tracked quantity and is
filled by the engine as the horizon advances.  Everything the paper
plots (cost components, queue backlog, battery level, purchases, waste)
is recorded, so any figure can be regenerated from a single run.
"""

from __future__ import annotations

import numpy as np
from repro.exceptions import ConfigurationError

#: Quantities tracked per fine slot (all MWh or dollars).
SERIES_NAMES = (
    "cost_lt",          # gbef/T · plt booked this slot ($)
    "cost_rt",          # grt · prt ($)
    "cost_battery",     # n(τ) · Cb ($)
    "cost_waste",       # W(τ) · waste_penalty ($)
    "cost_total",       # sum of the four components ($)
    "gbef_rate",        # advance delivery gbef/T (MWh)
    "grt",              # real-time purchase (MWh)
    "renewable_used",   # renewable energy accepted on the bus (MWh)
    "renewable_curtailed",  # renewable clipped by the supply cap (MWh)
    "served_ds",        # delay-sensitive demand served (MWh)
    "served_dt",        # delay-tolerant service sdt (MWh)
    "unserved_ds",      # availability gap (MWh, should stay 0)
    "charge",           # brc (MWh)
    "discharge",        # bdc (MWh)
    "battery_level",    # b(τ+1) after the slot (MWh)
    "waste",            # W(τ) (MWh)
    "backlog",          # Q(τ+1) after the slot (MWh)
    "gamma",            # commanded service fraction
)


class Recorder:
    """Fixed-horizon storage for every tracked per-slot series."""

    def __init__(self, n_slots: int):
        if n_slots < 1:
            raise ConfigurationError(f"n_slots must be >= 1, got {n_slots}")
        self.n_slots = n_slots
        self._series = {name: np.zeros(n_slots) for name in SERIES_NAMES}
        self._cursor = 0

    def record(self, **values: float) -> None:
        """Record one slot; unknown keys raise, missing keys stay 0."""
        if self._cursor >= self.n_slots:
            raise IndexError(
                f"recorder full ({self.n_slots} slots)")
        for name, value in values.items():
            if name not in self._series:
                raise KeyError(f"unknown series {name!r}")
            self._series[name][self._cursor] = value
        self._cursor += 1

    def series(self, name: str) -> np.ndarray:
        """Return one recorded series (read-only view)."""
        if name not in self._series:
            raise KeyError(f"unknown series {name!r}")
        array = self._series[name][:self._cursor]
        array.setflags(write=False)
        return array

    def as_dict(self) -> dict[str, np.ndarray]:
        """All series truncated to the recorded length."""
        return {name: self.series(name) for name in SERIES_NAMES}
