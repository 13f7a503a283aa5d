"""UPS battery model (paper eqs. 3, 7, 8).

The battery is the only stateful element on the supply side.  Its level
``b(τ)`` evolves as

    b(τ+1) = min[Bmax, b(τ) + ηc·brc(τ) − ηd·bdc(τ)]          (eq. 3)

subject to the availability floor ``Bmin ≤ b(τ) ≤ Bmax`` (eq. 7), the
per-slot rate caps ``brc ≤ Bcmax``, ``bdc ≤ Bdmax`` (eq. 8), and the
mutual-exclusion rule ``brc·bdc ≡ 0``.

:class:`UpsBattery` exposes *request*-style operations — callers ask to
absorb surplus or serve a deficit, and the battery returns how much it
actually accepted after clamping to every constraint.  This makes the
simulation engine's physics trivially safe: no control policy, however
buggy, can drive the stored level outside ``[Bmin, Bmax]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.system import SystemConfig
from repro.exceptions import InfeasibleActionError


@dataclass(frozen=True)
class BatteryAction:
    """Outcome of one slot of battery operation.

    ``charge`` is the energy absorbed from the bus [``brc``];
    ``discharge`` is the energy delivered to the bus [``bdc``]; at most
    one is non-zero.  ``level_after`` is ``b(τ+1)``.
    """

    charge: float
    discharge: float
    level_after: float

    @property
    def active(self) -> bool:
        """Whether the slot counts against the cycle budget (``n(τ)``)."""
        return self.charge > 0.0 or self.discharge > 0.0


class UpsBattery:
    """Stateful UPS battery enforcing eqs. (3), (7), (8).

    Parameters
    ----------
    system:
        Provides capacity bounds, rate caps and efficiencies.
    level:
        Initial stored energy; defaults to the system's
        ``initial_battery`` (a full UPS).
    """

    def __init__(self, system: SystemConfig, level: float | None = None):
        self.system = system
        initial = system.initial_battery if level is None else float(level)
        if not system.b_min <= initial <= system.b_max:
            raise InfeasibleActionError(
                f"initial battery level {initial} outside "
                f"[{system.b_min}, {system.b_max}]")
        self._level = initial

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def level(self) -> float:
        """Current stored energy ``b(τ)`` in MWh."""
        return self._level

    @property
    def headroom(self) -> float:
        """Bus energy absorbable this slot (rate + capacity limited)."""
        return self.system.max_charge_energy(self._level)

    @property
    def available(self) -> float:
        """Bus energy servable this slot (rate + reserve limited)."""
        return self.system.max_discharge_energy(self._level)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def charge(self, requested: float) -> BatteryAction:
        """Absorb up to ``requested`` MWh of surplus from the bus.

        Returns the clamped action; the difference
        ``requested − action.charge`` is energy the battery could not
        take (the caller counts it as waste ``W(τ)``).
        """
        if requested < 0:
            raise InfeasibleActionError(
                f"charge request must be >= 0, got {requested}")
        accepted = min(requested, self.headroom)
        self._level = min(self.system.b_max,
                          self._level + self.system.eta_c * accepted)
        return BatteryAction(charge=accepted, discharge=0.0,
                             level_after=self._level)

    def discharge(self, requested: float) -> BatteryAction:
        """Serve up to ``requested`` MWh of deficit from the battery.

        Draining respects the discharge loss factor ``ηd`` (serving
        ``x`` removes ``ηd·x`` from storage), the per-slot rate cap and
        the ``Bmin`` reserve.
        """
        if requested < 0:
            raise InfeasibleActionError(
                f"discharge request must be >= 0, got {requested}")
        delivered = min(requested, self.available)
        self._level = max(self.system.b_min,
                          self._level - self.system.eta_d * delivered)
        return BatteryAction(charge=0.0, discharge=delivered,
                             level_after=self._level)

    def idle(self) -> BatteryAction:
        """No-op slot (keeps the action log uniform)."""
        return BatteryAction(charge=0.0, discharge=0.0,
                             level_after=self._level)

    def settle(self, net_surplus: float) -> BatteryAction:
        """Charge on surplus, discharge on deficit, idle at zero.

        ``net_surplus`` is supply minus served demand for the slot;
        this is the paper's eq. (3) dispatch rule
        (``brc = [s − d]⁺, bdc = [d − s]⁺``) with all clamps applied.
        """
        if net_surplus > 0:
            return self.charge(net_surplus)
        if net_surplus < 0:
            return self.discharge(-net_surplus)
        return self.idle()

    def reset(self, level: float | None = None) -> None:
        """Restore the initial (or a given) level for a fresh horizon."""
        target = (self.system.initial_battery if level is None
                  else float(level))
        if not self.system.b_min <= target <= self.system.b_max:
            raise InfeasibleActionError(
                f"reset level {target} outside "
                f"[{self.system.b_min}, {self.system.b_max}]")
        self._level = target

    def __repr__(self) -> str:
        return (f"UpsBattery(level={self._level:.4f}, "
                f"range=[{self.system.b_min}, {self.system.b_max}])")
