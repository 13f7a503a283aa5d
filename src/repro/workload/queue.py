"""Delay-tolerant backlog queue with a FIFO delay ledger (paper eq. 2).

The scalar backlog evolves exactly as the paper's eq. (2):

    Q(τ+1) = max{Q(τ) − sdt(τ), 0} + ddt(τ)

— service ``sdt(τ)`` drains the *start-of-slot* backlog, and the slot's
arrivals ``ddt(τ)`` join afterwards (so energy arriving in slot ``τ``
can be served no earlier than slot ``τ+1``, a delay of at least one
slot).

On top of the scalar, :class:`BacklogQueue` keeps FIFO *parcels* — one
per arrival slot — so that each served MWh carries its true waiting
time.  The paper evaluates "average delay" (Figs. 6b, 6d) and proves a
worst-case bound ``λmax`` (Lemma 2 / Theorem 2-(4)); both are computed
from this ledger, and the parcel total is asserted to track the scalar
``Q`` to numerical precision at every step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from repro.exceptions import InfeasibleActionError

#: Absolute slack for float comparisons between ledger and scalar.
_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ServedParcel:
    """A served chunk of delay-tolerant energy and how long it waited."""

    energy: float
    delay_slots: int


@dataclass
class DelayStats:
    """Energy-weighted delay statistics accumulated over a horizon."""

    served_energy: float = 0.0
    weighted_delay: float = 0.0
    max_delay: int = 0
    histogram: dict[int, float] = field(default_factory=dict)

    def add(self, parcel: ServedParcel) -> None:
        """Fold one served parcel into the statistics."""
        self.served_energy += parcel.energy
        self.weighted_delay += parcel.energy * parcel.delay_slots
        if parcel.delay_slots > self.max_delay:
            self.max_delay = parcel.delay_slots
        bucket = self.histogram.get(parcel.delay_slots, 0.0)
        self.histogram[parcel.delay_slots] = bucket + parcel.energy

    @property
    def average_delay(self) -> float:
        """Energy-weighted mean delay in slots (0 if nothing served).

        Capped at ``max_delay``: the rounded quotient of one parcel's
        ``take * d / take`` can land one ulp above ``d``.
        """
        if self.served_energy == 0:
            return 0.0
        return min(self.weighted_delay / self.served_energy,
                   float(self.max_delay))


class BacklogQueue:
    """The delay-tolerant demand queue ``Q`` with FIFO delay tracking."""

    def __init__(self) -> None:
        self._backlog = 0.0
        self._parcels: deque[list[float]] = deque()  # [arrival_slot, energy]
        self.stats = DelayStats()

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def backlog(self) -> float:
        """Current scalar backlog ``Q(τ)`` in MWh."""
        return self._backlog

    @property
    def has_backlog(self) -> bool:
        """The indicator ``1{Q(τ) > 0}`` used by the Y-queue (eq. 12)."""
        return self._backlog > _TOLERANCE

    # ------------------------------------------------------------------
    # Dynamics (paper eq. 2 order: serve, then admit arrivals)
    # ------------------------------------------------------------------

    def serve(self, amount: float, current_slot: int) -> list[ServedParcel]:
        """Drain ``sdt(τ)`` from the backlog, oldest energy first.

        ``amount`` beyond the current backlog is ignored (eq. 2's
        ``max{·, 0}``).  Returns the served parcels with their delays
        (``current_slot − arrival_slot``).
        """
        if amount < 0:
            raise InfeasibleActionError(f"service must be >= 0, got {amount}")
        to_serve = min(amount, self._backlog)
        served: list[ServedParcel] = []
        remaining = to_serve
        while remaining > _TOLERANCE and self._parcels:
            arrival_slot, energy = self._parcels[0]
            take = min(energy, remaining)
            delay = max(0, current_slot - int(arrival_slot))
            parcel = ServedParcel(energy=take, delay_slots=delay)
            served.append(parcel)
            self.stats.add(parcel)
            remaining -= take
            if take >= energy - _TOLERANCE:
                self._parcels.popleft()
            else:
                self._parcels[0][1] = energy - take
        self._backlog = max(0.0, self._backlog - to_serve)
        self._assert_consistent()
        return served

    def admit(self, amount: float, arrival_slot: int) -> None:
        """Admit the slot's arrivals ``ddt(τ)`` at the queue tail."""
        if amount < 0:
            raise InfeasibleActionError(f"arrival must be >= 0, got {amount}")
        if amount > _TOLERANCE:
            self._parcels.append([arrival_slot, amount])
        self._backlog += amount
        self._assert_consistent()

    def step(self, service: float, arrivals: float,
             current_slot: int) -> list[ServedParcel]:
        """One full slot of eq. (2): serve first, then admit arrivals."""
        served = self.serve(service, current_slot)
        self.admit(arrivals, current_slot)
        return served

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def _assert_consistent(self) -> None:
        ledger = sum(energy for _, energy in self._parcels)
        if abs(ledger - self._backlog) > 1e-6 * max(1.0, self._backlog):
            raise AssertionError(
                f"backlog ledger desync: parcels sum to {ledger}, "
                f"scalar is {self._backlog}")

    def reset(self) -> None:
        """Empty the queue and statistics for a fresh horizon."""
        self._backlog = 0.0
        self._parcels.clear()
        self.stats = DelayStats()

    def __repr__(self) -> str:
        return (f"BacklogQueue(backlog={self._backlog:.4f}, "
                f"parcels={len(self._parcels)})")
