"""Two-timescale grid markets (paper Section II-A.1).

Both markets validate prices against the cap ``Pmax``, price each
purchase and keep a ledger of the energy bought, so the engine books
the operational cost exactly as the paper's cost model does:

    Cost(τ) = gbef(t)/T · plt(t) + grt(τ) · prt(τ) + n(τ)·Cb + W(τ).

The :class:`LongTermMarket` sells one block ``gbef(t)`` per coarse slot,
delivered evenly (``gbef/T`` per fine slot); the :class:`RealTimeMarket`
sells per fine slot.  Neither enforces the interconnect cap (paper
constraint 5) — that is physical, not commercial, and the engine
clamps it: the advance block to ``T · Pgrid`` and each real-time
purchase to the feeder headroom ``Pgrid − gbef/T``.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError, InfeasibleActionError


class MarketLedger:
    """Energy accounting shared by both markets."""

    def __init__(self, name: str):
        self.name = name
        self._energy = 0.0

    @property
    def energy(self) -> float:
        """Total MWh purchased so far."""
        return self._energy

    def record(self, energy: float, price: float) -> float:
        """Record a purchase, returning its cost."""
        if energy > 0:
            self._energy += energy
        return energy * price

    def __repr__(self) -> str:
        return f"MarketLedger({self.name!r}, energy={self._energy:.3f})"


class _MarketBase:
    """Validation shared by the two markets."""

    def __init__(self, price_cap: float, name: str):
        if price_cap <= 0:
            raise ConfigurationError(f"price cap must be > 0, got {price_cap}")
        self.price_cap = price_cap
        self.ledger = MarketLedger(name)

    def _check(self, energy: float, price: float) -> None:
        if energy < 0:
            raise InfeasibleActionError(
                f"{self.ledger.name}: purchase must be >= 0, got {energy}")
        if not 0 <= price <= self.price_cap * (1 + 1e-9):
            raise InfeasibleActionError(
                f"{self.ledger.name}: price {price} outside "
                f"[0, {self.price_cap}]")


class LongTermMarket(_MarketBase):
    """Long-term-ahead market: one block per coarse slot.

    A block ``gbef(t)`` bought at price ``plt(t)`` is delivered evenly
    over the coarse slot's ``T`` fine slots; the paper books its cost
    per fine slot as ``gbef/T · plt`` (summing to ``gbef · plt``).
    """

    def __init__(self, price_cap: float,
                 fine_slots_per_coarse: int):
        super().__init__(price_cap, "long-term")
        if fine_slots_per_coarse < 1:
            raise ConfigurationError(
                f"T must be >= 1, got {fine_slots_per_coarse}")
        self.fine_slots_per_coarse = fine_slots_per_coarse
        self._current_block = 0.0

    def purchase_block(self, energy: float, price: float) -> None:
        """Commit the coarse slot's advance purchase ``gbef(t)``."""
        self._check(energy, price)
        self._current_block = energy
        self.ledger.record(energy, price)

    @property
    def per_fine_slot_energy(self) -> float:
        """Scheduled delivery ``gbef(t)/T`` for each fine slot."""
        return self._current_block / self.fine_slots_per_coarse


class RealTimeMarket(_MarketBase):
    """Real-time market: per-fine-slot purchases ``grt(τ)``."""

    def __init__(self, price_cap: float):
        super().__init__(price_cap, "real-time")

    def purchase(self, energy: float, price: float) -> float:
        """Buy ``grt(τ)`` at ``prt(τ)``; returns the slot cost."""
        self._check(energy, price)
        return self.ledger.record(energy, price)
