"""Controller configuration (paper Sections III-IV).

:class:`SmartDPSSConfig` gathers the algorithmic knobs of the online
controller.  The two central parameters realize the paper's
``[O(1/V), O(V)]`` cost-delay trade-off:

* ``v`` [paper ``V``] — weight on cost versus queue drift.  Larger ``V``
  pushes time-average cost toward the offline optimum while letting the
  delay-tolerant backlog (and hence service delay) grow linearly.
* ``epsilon`` [paper ``ε``] — growth rate of the delay-aware virtual
  queue ``Y``; larger ``ε`` forces earlier service (lower delay, higher
  cost).

``objective_mode`` selects between the P5 objective exactly as published
and a first-principles re-derivation: the printed objective credits
queue drift to buying energy whether or not it serves the queue, so it
is kept only as an ablation (see :mod:`repro.core.modes`).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError


class ObjectiveMode(str, enum.Enum):
    """Which drift-plus-penalty expansion P5 minimizes.

    PAPER:
        The objective exactly as printed in the paper's Algorithm 1
        (service term ``γ·[Q² − QY]``).
    DERIVED:
        The textbook drift-plus-penalty derivation from the queue
        dynamics (service term ``−γ·Q·(Q + Y)``); kept as an ablation.
    """

    PAPER = "paper"
    DERIVED = "derived"


@dataclass(frozen=True)
class SmartDPSSConfig:
    """Immutable algorithmic configuration for SmartDPSS.

    Attributes
    ----------
    v:
        Lyapunov cost-delay parameter ``V > 0``.  The paper sweeps
        ``V ∈ [0.05, 5]`` (Fig. 6a-b).
    epsilon:
        Delay-control parameter ``ε > 0`` of the ε-persistent virtual
        queue (eq. 12).  The paper sweeps ``ε ∈ {0.25, 0.5, 1, 2}``
        (Fig. 7).
    objective_mode:
        P5 objective variant; see :class:`ObjectiveMode`.
    use_long_term_market:
        When ``False`` the controller never buys ahead (``gbef ≡ 0``),
        reproducing the paper's "solely real-time market" configuration
        (Fig. 7, "RTM").
    use_battery:
        When ``False`` the controller never charges or discharges,
        reproducing "no battery" ("NB") even if the physical system has
        one.
    price_scale:
        Dollars-per-MWh per internal controller price unit.  The
        Lyapunov weights compare ``V · price`` against queue backlogs
        in MWh, so the price unit fixes the meaning of ``V``; the
        default of 10 $/MWh (i.e. prices in ¢/kWh) makes the paper's
        ``V ∈ [0.05, 5]`` sweep span the interesting trade-off region
        for a ~2 MW datacenter, matching the paper's magnitudes.
    battery_shift_mode:
        Shift-point rule for the battery virtual queue ``X``:
        ``"operational"`` (default; see
        :func:`repro.core.virtual_queues.operational_shift`) or
        ``"paper"`` (eq. 14 verbatim; requires ``Vmax > 0`` to behave).
    battery_price_margin:
        Extra $/MWh a battery trade must clear beyond the Lyapunov
        break-even before the derived objective will charge or
        discharge.  The ``X``-weight prices stored energy exactly at
        break-even given the round-trip efficiency (≈ 64% with the
        paper's ``ηc = 0.8, ηd = 1.25``), so saturated small batteries
        would otherwise churn at zero expected profit and lose the
        per-operation cost ``Cb``; the margin keeps only genuinely
        profitable trades.  Ignored in paper objective mode.
    plan_deferrable_arrivals:
        Whether derived-mode P4 also sizes the advance block for the
        window's expected deferrable arrivals.  Off by default — the
        surplus it creates rarely coincides with backlog being present
        (P5 serves at price dips first), so pre-buying for deferred
        load loses money; the Abl-4 benchmark quantifies this.
    """

    v: float = 1.0
    epsilon: float = 0.5
    objective_mode: ObjectiveMode = ObjectiveMode.DERIVED
    use_long_term_market: bool = True
    use_battery: bool = True
    price_scale: float = 10.0
    battery_shift_mode: str = "operational"
    battery_price_margin: float = 3.0
    plan_deferrable_arrivals: bool = False

    def __post_init__(self) -> None:
        if not (isinstance(self.v, (int, float)) and math.isfinite(self.v)):
            raise ConfigurationError(f"V must be a finite number, got {self.v!r}")
        if self.v <= 0:
            raise ConfigurationError(f"V must be > 0, got {self.v}")
        if not math.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ConfigurationError(
                f"epsilon must be > 0 and finite, got {self.epsilon}")
        if not isinstance(self.objective_mode, ObjectiveMode):
            # Accept the plain strings "paper" / "derived" for ergonomics.
            try:
                object.__setattr__(self, "objective_mode",
                                   ObjectiveMode(self.objective_mode))
            except ValueError as exc:
                raise ConfigurationError(
                    f"unknown objective mode {self.objective_mode!r}") from exc
        if not math.isfinite(self.price_scale) or self.price_scale <= 0:
            raise ConfigurationError(
                f"price_scale must be > 0 and finite, got "
                f"{self.price_scale}")
        if self.battery_shift_mode not in ("operational", "paper"):
            raise ConfigurationError(
                f"unknown battery shift mode "
                f"{self.battery_shift_mode!r} (use 'operational' or "
                f"'paper')")
        if (not math.isfinite(self.battery_price_margin)
                or self.battery_price_margin < 0):
            raise ConfigurationError(
                f"battery_price_margin must be >= 0 and finite, got "
                f"{self.battery_price_margin}")

    def replace(self, **changes: object) -> "SmartDPSSConfig":
        """Return a copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)
