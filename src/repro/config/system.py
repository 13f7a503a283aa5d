"""Physical system configuration (paper Section II).

:class:`SystemConfig` captures every physical constant of the datacenter
power supply system: the two-timescale horizon, the grid interconnect,
the two markets' price cap, the UPS battery and the demand-side caps.
All values use the library's unit system (MWh / USD / 1-hour fine slots —
see :mod:`repro.units`).

The dataclass is frozen: a configuration is an immutable value object
that can be shared between a simulator, a controller and an offline
benchmark without defensive copies.  Use :meth:`SystemConfig.replace`
to derive variants for parameter sweeps.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.units import battery_minutes_to_mwh


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class SystemConfig:
    """Immutable description of the DPSS physical system.

    Attributes mirror the paper's notation (given in brackets).

    Horizon
    -------
    fine_slots_per_coarse:
        Number of fine-grained slots per coarse-grained slot [``T``].
        The long-term-ahead market clears once per coarse slot.
    num_coarse_slots:
        Number of coarse-grained slots in the horizon [``K``].
    slot_hours:
        Length of one fine-grained slot in hours (paper: 15 or 60 min).

    Grid and markets
    ----------------
    p_max:
        Upper bound on both markets' prices in $/MWh [``Pmax``].
    p_grid:
        Maximum energy drawable from the grid per fine slot in MWh
        [``Pgrid``], constraint (5).
    s_max:
        Cap on total supply per fine slot in MWh [``Smax``], eq. (1).

    UPS battery
    -----------
    b_max / b_min:
        Battery capacity bounds in MWh [``Bmax`` / ``Bmin``],
        constraint (7).  ``b_min`` is the reserve required for
        availability (about one minute of peak demand in the paper).
    b_init:
        Battery level at the start of the horizon (UPSes are kept
        charged, so the default presets use ``b_max``).
    b_charge_max / b_discharge_max:
        Per-slot charge/discharge caps in MWh [``Bcmax`` / ``Bdmax``],
        constraint (8).
    eta_c / eta_d:
        Charge efficiency ``ηc ∈ (0, 1]`` and discharge loss factor
        ``ηd ≥ 1`` (storing ``x`` MWh banks ``ηc·x``; serving ``x`` MWh
        drains ``ηd·x``), eq. (3).
    battery_op_cost:
        Dollar cost per charge-or-discharge operation [``Cb``].
    cycle_budget:
        Maximum number of slots with battery activity over the horizon
        [``Nmax``], constraint (9); ``None`` disables the budget.

    Demand side
    -----------
    d_dt_max:
        Maximum delay-tolerant arrival per fine slot in MWh
        [``Ddtmax``].
    s_dt_max:
        Maximum delay-tolerant service per fine slot in MWh
        [``Sdtmax``].

    Cost model
    ----------
    waste_penalty:
        $/MWh penalty applied to wasted energy ``W(τ)`` in the cost
        (the paper adds raw ``W`` to dollar terms, i.e. coefficient 1).
    """

    fine_slots_per_coarse: int = 24
    num_coarse_slots: int = 31
    slot_hours: float = 1.0

    p_max: float = 200.0
    p_grid: float = 2.0
    s_max: float = 8.0

    b_max: float = 0.5
    b_min: float = 0.0333
    b_init: float | None = None
    b_charge_max: float = 0.5
    b_discharge_max: float = 0.5
    eta_c: float = 0.8
    eta_d: float = 1.25
    battery_op_cost: float = 0.1
    cycle_budget: int | None = None

    d_dt_max: float = 1.0
    s_dt_max: float = 2.0

    waste_penalty: float = 1.0

    def __post_init__(self) -> None:
        _require(self.fine_slots_per_coarse >= 1,
                 f"T must be >= 1, got {self.fine_slots_per_coarse}")
        _require(self.num_coarse_slots >= 1,
                 f"K must be >= 1, got {self.num_coarse_slots}")
        _require(self.slot_hours > 0,
                 f"slot_hours must be > 0, got {self.slot_hours}")
        _require(self.p_max > 0, f"Pmax must be > 0, got {self.p_max}")
        _require(self.p_grid >= 0, f"Pgrid must be >= 0, got {self.p_grid}")
        _require(self.s_max >= 0, f"Smax must be >= 0, got {self.s_max}")
        _require(self.b_max >= 0, f"Bmax must be >= 0, got {self.b_max}")
        _require(0 <= self.b_min <= self.b_max,
                 f"need 0 <= Bmin <= Bmax, got Bmin={self.b_min}, "
                 f"Bmax={self.b_max}")
        if self.b_init is not None:
            _require(self.b_min <= self.b_init <= self.b_max,
                     f"b_init={self.b_init} outside "
                     f"[{self.b_min}, {self.b_max}]")
        _require(self.b_charge_max >= 0,
                 f"Bcmax must be >= 0, got {self.b_charge_max}")
        _require(self.b_discharge_max >= 0,
                 f"Bdmax must be >= 0, got {self.b_discharge_max}")
        _require(0 < self.eta_c <= 1,
                 f"eta_c must be in (0, 1], got {self.eta_c}")
        _require(self.eta_d >= 1, f"eta_d must be >= 1, got {self.eta_d}")
        _require(self.battery_op_cost >= 0,
                 f"Cb must be >= 0, got {self.battery_op_cost}")
        if self.cycle_budget is not None:
            _require(self.cycle_budget >= 0,
                     f"Nmax must be >= 0, got {self.cycle_budget}")
        _require(self.d_dt_max >= 0,
                 f"Ddtmax must be >= 0, got {self.d_dt_max}")
        _require(self.s_dt_max >= 0,
                 f"Sdtmax must be >= 0, got {self.s_dt_max}")
        _require(self.waste_penalty >= 0,
                 f"waste penalty must be >= 0, got {self.waste_penalty}")
        for field in ("p_max", "p_grid", "s_max", "b_max", "b_min",
                      "b_charge_max", "b_discharge_max", "eta_c", "eta_d",
                      "battery_op_cost", "d_dt_max", "s_dt_max",
                      "waste_penalty", "slot_hours"):
            value = getattr(self, field)
            _require(math.isfinite(value), f"{field} must be finite")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def horizon_slots(self) -> int:
        """Total number of fine-grained slots ``K · T``."""
        return self.num_coarse_slots * self.fine_slots_per_coarse

    @property
    def initial_battery(self) -> float:
        """Battery level at slot 0 (defaults to a full battery)."""
        return self.b_max if self.b_init is None else self.b_init

    def max_discharge_energy(self, battery_level: float) -> float:
        """Maximum energy servable from the battery in one slot.

        Accounts for the rate cap, the reserve floor ``Bmin`` and the
        discharge loss factor: serving ``x`` drains ``ηd·x`` from the
        battery, so at level ``b`` at most ``(b − Bmin)/ηd`` can be
        served.
        """
        headroom = max(0.0, battery_level - self.b_min) / self.eta_d
        return min(self.b_discharge_max, headroom)

    def max_charge_energy(self, battery_level: float) -> float:
        """Maximum surplus energy absorbable by the battery in one slot.

        Accounts for the rate cap and the remaining capacity: absorbing
        ``x`` banks ``ηc·x``, so at level ``b`` at most
        ``(Bmax − b)/ηc`` can be absorbed.
        """
        headroom = max(0.0, self.b_max - battery_level) / self.eta_c
        return min(self.b_charge_max, headroom)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    def replace(self, **changes: object) -> "SystemConfig":
        """Return a copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    def with_battery_minutes(self, minutes: float,
                             peak_demand_mw: float,
                             reserve_minutes: float = 1.0,
                             ) -> "SystemConfig":
        """Derive a config whose battery is sized in paper units.

        ``minutes`` is the paper's ``Bmax`` convention (minutes of peak
        demand the battery can carry); ``reserve_minutes`` sizes
        ``Bmin`` the same way (the paper keeps about one minute of peak
        demand as the availability reserve).  A zero-minute battery
        produces a no-battery system (``Bmax = Bmin = 0``).
        """
        b_max = battery_minutes_to_mwh(minutes, peak_demand_mw)
        b_min = min(b_max,
                    battery_minutes_to_mwh(reserve_minutes, peak_demand_mw))
        if minutes == 0:
            b_min = 0.0
        return self.replace(b_max=b_max, b_min=b_min, b_init=None)

    def coarse_index(self, fine_slot: int) -> int:
        """Coarse slot that contains the given fine slot."""
        if fine_slot < 0:
            raise ConfigurationError(f"fine slot must be >= 0, got {fine_slot}")
        return fine_slot // self.fine_slots_per_coarse

    def is_coarse_boundary(self, fine_slot: int) -> bool:
        """Whether a fine slot opens a new coarse slot (``t = kT``)."""
        return fine_slot % self.fine_slots_per_coarse == 0
