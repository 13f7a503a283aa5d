"""Controller protocol and the records exchanged with the engine.

The simulation engine owns all physical state (battery, backlog queue,
markets) and resolves physics; controllers are pure policies that map
observations to decisions.  This split means no policy — however
buggy — can violate a physical constraint, and every policy (SmartDPSS,
Impatient, offline optimal, custom user policies) is driven by the
identical loop:

1. at each coarse boundary ``t = kT`` the engine calls
   :meth:`Controller.plan_long_term` with a :class:`CoarseObservation`
   and receives the advance purchase ``gbef(t)``;
2. at every fine slot it calls :meth:`Controller.real_time` with a
   :class:`FineObservation` and receives a :class:`RealTimeDecision`
   (``grt(τ)``, ``γ(τ)``);
3. after resolving physics it calls :meth:`Controller.end_slot` with a
   :class:`SlotFeedback` carrying *realized* quantities, which is what
   stateful controllers use to update their virtual queues.

Observations carry the (possibly noise-injected — Fig. 9) trace values;
feedback carries ground truth, because the DPSS always knows what it
actually served and stored.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.config.system import SystemConfig
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class CoarseObservation:
    """What the controller sees at a coarse boundary ``t = kT``.

    Per the paper (Section II-A.1), the DPSS "observes the demand d(t)
    and renewable r(t) generated during time slot t" — a coarse slot's
    worth of history.  The engine therefore supplies both the
    *averages* (scalar fields, per fine slot) and the full *hourly
    profiles* of the previous coarse window (``profile_*`` tuples),
    plus the controller's own state (battery, backlog).  Everything is
    strictly backward-looking: no future statistics are revealed.
    """

    coarse_index: int
    fine_slot: int
    price_lt: float
    demand_ds: float
    demand_dt: float
    renewable: float
    battery_level: float
    backlog: float
    cycle_budget_left: int | None
    profile_demand_ds: tuple[float, ...] = ()
    profile_demand_dt: tuple[float, ...] = ()
    profile_renewable: tuple[float, ...] = ()
    profile_price_rt: tuple[float, ...] = ()

    @property
    def demand_total(self) -> float:
        """Observed aggregate demand ``d(t)``."""
        return self.demand_ds + self.demand_dt


@dataclass(frozen=True)
class BatchCoarseObservation:
    """Array form of :class:`CoarseObservation` for ``B`` scenarios.

    Scalar fields become ``(B,)`` float arrays and the ``profile_*``
    tuples become ``(B, W)`` blocks (``W`` the lookback-window width —
    ``T`` everywhere except the very first boundary, which only has
    the boundary slot itself).  ``cycle_budget_left`` uses ``+inf``
    for the scalar protocol's ``None`` (unconstrained), matching the
    fine-slot batch convention.

    The mean fields (``demand_ds`` / ``demand_dt`` / ``renewable``)
    are the per-fine-slot window averages, accumulated column-by-
    column in slot order so they are bit-identical to the scalar
    engine's ``sum(profile)/len(profile)``.  :meth:`scalar` recovers
    the exact per-scenario :class:`CoarseObservation`, which is what
    keeps scalar controllers inside the batch engine on the reference
    observation path.
    """

    coarse_index: int
    fine_slot: int
    price_lt: np.ndarray
    demand_ds: np.ndarray
    demand_dt: np.ndarray
    renewable: np.ndarray
    battery_level: np.ndarray
    backlog: np.ndarray
    cycle_budget_left: np.ndarray
    profile_demand_ds: np.ndarray
    profile_demand_dt: np.ndarray
    profile_renewable: np.ndarray
    profile_price_rt: np.ndarray

    def scalar(self, index: int) -> CoarseObservation:
        """The exact scalar observation of one scenario."""
        budget = float(self.cycle_budget_left[index])
        return CoarseObservation(
            coarse_index=self.coarse_index,
            fine_slot=self.fine_slot,
            price_lt=float(self.price_lt[index]),
            demand_ds=float(self.demand_ds[index]),
            demand_dt=float(self.demand_dt[index]),
            renewable=float(self.renewable[index]),
            battery_level=float(self.battery_level[index]),
            backlog=float(self.backlog[index]),
            cycle_budget_left=(None if np.isinf(budget)
                               else int(budget)),
            profile_demand_ds=tuple(
                self.profile_demand_ds[index].tolist()),
            profile_demand_dt=tuple(
                self.profile_demand_dt[index].tolist()),
            profile_renewable=tuple(
                self.profile_renewable[index].tolist()),
            profile_price_rt=tuple(
                self.profile_price_rt[index].tolist()),
        )


@dataclass(frozen=True)
class FineObservation:
    """What the controller sees at every fine slot ``τ``."""

    fine_slot: int
    coarse_index: int
    price_rt: float
    demand_ds: float
    demand_dt: float
    renewable: float
    battery_level: float
    backlog: float
    long_term_rate: float
    grid_headroom: float
    supply_headroom: float
    cycle_budget_left: int | None


@dataclass(frozen=True)
class RealTimeDecision:
    """The per-fine-slot control action ``(grt(τ), γ(τ))``.

    ``grt`` is the real-time purchase in MWh (clamped by the engine to
    the interconnect headroom); ``gamma ∈ [0, 1]`` is the fraction of
    the current backlog to serve (eq. 2, ``sdt = γ·Q``, capped at
    ``Sdtmax``).
    """

    grt: float
    gamma: float

    def __post_init__(self) -> None:
        if self.grt < 0:
            raise ConfigurationError(f"grt must be >= 0, got {self.grt}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError(f"gamma must be in [0, 1], got {self.gamma}")


@dataclass(frozen=True)
class SlotFeedback:
    """Realized outcome of one fine slot, reported back to the policy."""

    fine_slot: int
    served_dt: float
    served_ds: float
    unserved_ds: float
    charge: float
    discharge: float
    waste: float
    battery_level: float
    backlog: float
    had_backlog: bool


class Controller(abc.ABC):
    """Base class every supply-side policy implements."""

    @abc.abstractmethod
    def begin_horizon(self, system: SystemConfig) -> None:
        """Reset internal state for a fresh simulation horizon."""

    @abc.abstractmethod
    def plan_long_term(self, obs: CoarseObservation) -> float:
        """Return the advance purchase ``gbef(t) ≥ 0`` for this coarse slot."""

    @abc.abstractmethod
    def real_time(self, obs: FineObservation) -> RealTimeDecision:
        """Return the fine-slot action ``(grt(τ), γ(τ))``."""

    def end_slot(self, feedback: SlotFeedback) -> None:
        """Observe realized outcomes (default: stateless, ignore)."""

    @property
    def name(self) -> str:
        """Human-readable policy name for reports."""
        return type(self).__name__
