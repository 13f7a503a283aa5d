"""Virtual queues of the Lyapunov construction (paper Sections III-A/B).

Two auxiliary state variables steer SmartDPSS:

* :class:`DelayAwareQueue` — the ε-persistent queue ``Y(t)`` (eq. 12).
  ``Y`` grows by ``ε`` in every slot that leaves backlog unserved and
  shrinks with service, so a *bounded* ``Y`` certifies the worst-case
  delay ``λmax = ⌈(Qmax + Ymax)/ε⌉`` (Lemma 2): backlogged demand
  cannot sit forever without either ``Y`` blowing past its bound or the
  demand being served.

* :class:`BatteryVirtualQueue` — the shifted battery tracker ``X(t) =
  b(t) − shift`` (eq. 14).  Weighting charge/discharge by ``X`` pushes
  the battery level toward the shift point; the paper's shift
  ``Umax + Bmin + Bdmax·ηd`` makes the Lyapunov argument close
  (Theorem 2 parts 1-2) **when** ``Vmax > 0``.  The paper's own
  evaluation battery (15 minutes of peak ≈ 0.5 MWh) violates that
  precondition — the required safety margins exceed the whole battery —
  so this class also provides the *operational* shift
  ``(Bmin + Bmax)/2 + V·p̄`` (with ``p̄`` a reference price), which
  reduces to the same structure but centres the price-arbitrage band
  inside the observed price range.  The operational shift is this
  reproduction's deviation from the paper; tests verify the
  paper-literal variant on configurations where ``Vmax > 0`` actually
  holds.
"""

from __future__ import annotations

from repro.exceptions import (
    ConfigurationError,
    InfeasibleActionError,
    StateError,
)


class DelayAwareQueue:
    """The ε-persistent delay-aware virtual queue ``Y(t)`` (eq. 12).

    Update (driven by *realized* service):

        Y(t+1) = max{Y(t) − sdt(t) + ε·1{Q(t) > 0}, 0}.
    """

    def __init__(self, epsilon: float):
        if epsilon <= 0:
            raise ConfigurationError(f"epsilon must be > 0, got {epsilon}")
        self.epsilon = epsilon
        self._value = 0.0
        self._peak = 0.0

    @property
    def value(self) -> float:
        """Current ``Y(t)``."""
        return self._value

    @property
    def peak(self) -> float:
        """Largest ``Y`` observed this horizon (for bound checks)."""
        return self._peak

    def update(self, served_dt: float, had_backlog: bool) -> float:
        """Apply eq. (12) for one slot; returns the new ``Y``."""
        if served_dt < 0:
            raise InfeasibleActionError(f"service must be >= 0, got {served_dt}")
        growth = self.epsilon if had_backlog else 0.0
        self._value = max(self._value - served_dt + growth, 0.0)
        if self._value > self._peak:
            self._peak = self._value
        return self._value

    def state(self) -> dict:
        """Exact snapshot of the live state (for cross-engine checks)."""
        return {"value": self._value, "peak": self._peak}

    def __repr__(self) -> str:
        return f"DelayAwareQueue(Y={self._value:.4f}, eps={self.epsilon})"


class BatteryVirtualQueue:
    """The shifted battery tracker ``X(t) = b(t) − shift`` (eq. 14).

    ``X`` is a deterministic function of the physical battery level, so
    rather than integrating eq. (15) separately (and risking drift from
    the true level), this class recomputes ``X`` from ``b(t)`` each
    slot.  The two are equivalent because eq. (15) applies the same
    increments as eq. (3).
    """

    def __init__(self, shift: float):
        self.shift = shift
        self._value: float | None = None
        self._min_seen: float | None = None
        self._max_seen: float | None = None

    @property
    def value(self) -> float:
        """Current ``X(t)`` (raises if never observed)."""
        if self._value is None:
            raise StateError("battery queue not yet observed")
        return self._value

    def observe(self, battery_level: float) -> float:
        """Recompute ``X`` from the physical level; returns it."""
        self._value = battery_level - self.shift
        if self._min_seen is None or self._value < self._min_seen:
            self._min_seen = self._value
        if self._max_seen is None or self._value > self._max_seen:
            self._max_seen = self._value
        return self._value

    def retarget(self, shift: float) -> None:
        """Move the shift point (operational mode adapts it to prices)."""
        self.shift = shift

    def state(self) -> dict:
        """Exact snapshot of the live state (for cross-engine checks).

        ``value`` / ``min_seen`` / ``max_seen`` are ``None`` while the
        queue has never been observed.
        """
        return {"shift": self.shift, "value": self._value,
                "min_seen": self._min_seen, "max_seen": self._max_seen}

    def __repr__(self) -> str:
        current = "unset" if self._value is None else f"{self._value:.4f}"
        return f"BatteryVirtualQueue(X={current}, shift={self.shift:.4f})"


def paper_shift(u_max: float, b_min: float, b_discharge_max: float,
                eta_d: float) -> float:
    """The paper-literal shift ``Umax + Bmin + Bdmax·ηd`` (eq. 14)."""
    return u_max + b_min + b_discharge_max * eta_d


def operational_shift(b_min: float, b_max: float, v: float,
                      reference_price: float) -> float:
    """The operational shift ``(Bmin + Bmax)/2 + V·p̄``.

    Centres the battery's target level mid-capacity and couples it to a
    reference price so the Lyapunov weights implement charge-when-cheap
    / discharge-when-dear arbitrage even for batteries far smaller than
    the theorem's safety margins.
    """
    return 0.5 * (b_min + b_max) + v * reference_price
