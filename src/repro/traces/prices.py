"""NYISO-like synthetic two-market electricity prices.

The paper replays one month of NYISO (New York ISO) price data and
assumes a long-term-ahead market that is *cheaper on average* than the
real-time market (``E[prt] > E[plt]``, Section II-B.2 — the discount for
upfront commitment).  This module synthesizes both series:

* **real-time price** ``prt(τ)`` — a double-peaked diurnal base shape
  (morning and evening system peaks), a weekend depression, persistent
  lognormal noise, and rare price spikes (scarcity events), clipped to
  ``[floor, Pmax]``;
* **long-term forward curve** — the smoothed diurnal expectation of the
  real-time price multiplied by a contract discount, plus small forward
  noise.  Averaging the hourly curve over a coarse slot yields
  ``plt(k)`` for any ``T`` (see :meth:`repro.traces.base.TraceSet.coarse_prices`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.traces.base import slot_time_indices


#: Hour-of-day base shape, normalized around 1.0: NYISO-like winter load
#: curve with a morning ramp and a taller early-evening peak.
_DIURNAL_SHAPE = np.array([
    0.72, 0.68, 0.66, 0.65, 0.67, 0.74,   # 00-05: overnight trough
    0.88, 1.05, 1.18, 1.16, 1.10, 1.06,   # 06-11: morning ramp + peak
    1.02, 1.00, 0.99, 1.01, 1.10, 1.28,   # 12-17: midday shoulder, ramp
    1.38, 1.32, 1.20, 1.05, 0.90, 0.79,   # 18-23: evening peak, decline
])


@dataclass(frozen=True)
class PriceModel:
    """Parameters of the synthetic two-market price process.

    Attributes
    ----------
    mean_price:
        Target time-average of the real-time price ($/MWh); NYISO
        January 2012 zonal LBMPs averaged in the tens of dollars.
    price_floor / price_cap:
        Hard clip range; ``price_cap`` should equal the system's
        ``Pmax``.
    weekend_factor:
        Multiplier applied on Saturdays/Sundays (lower load → lower
        prices).
    noise_rho / noise_sigma:
        AR(1) persistence and innovation scale of the lognormal noise.
    spike_probability / spike_scale:
        Per-hour probability and multiplicative magnitude of scarcity
        spikes.
    forward_discount:
        Long-term contract discount: the forward curve is the smoothed
        real-time expectation times this factor (< 1 enforces
        ``E[plt] < E[prt]``).
    forward_noise_sigma:
        Relative noise on the forward curve (forecast imperfection).
    start_weekday:
        Weekday of slot 0 (0 = Monday); Jan 1, 2012 was a Sunday → 6.
    """

    mean_price: float = 50.0
    price_floor: float = 5.0
    price_cap: float = 200.0
    weekend_factor: float = 0.82
    noise_rho: float = 0.85
    noise_sigma: float = 0.18
    spike_probability: float = 0.012
    spike_scale: float = 2.6
    forward_discount: float = 0.85
    forward_noise_sigma: float = 0.03
    start_weekday: int = 6
    slot_hours: float = 1.0

    def __post_init__(self) -> None:
        if self.mean_price <= 0:
            raise ConfigurationError(
                f"mean price must be > 0, got {self.mean_price}")
        if not 0 <= self.price_floor < self.price_cap:
            raise ConfigurationError(
                f"need 0 <= floor < cap, got ({self.price_floor}, "
                f"{self.price_cap})")
        if not 0 < self.weekend_factor <= 1:
            raise ConfigurationError(
                f"weekend factor must be in (0, 1], got "
                f"{self.weekend_factor}")
        if not 0 <= self.noise_rho < 1:
            raise ConfigurationError(
                f"noise_rho must be in [0, 1), got {self.noise_rho}")
        if self.noise_sigma < 0 or self.forward_noise_sigma < 0:
            raise ConfigurationError("noise scales must be >= 0")
        if not 0 <= self.spike_probability < 1:
            raise ConfigurationError(
                f"spike probability must be in [0, 1), got "
                f"{self.spike_probability}")
        if self.spike_scale < 1:
            raise ConfigurationError(
                f"spike scale must be >= 1, got {self.spike_scale}")
        if not 0 < self.forward_discount <= 1:
            raise ConfigurationError(
                f"forward discount must be in (0, 1], got "
                f"{self.forward_discount}")
        if not 0 <= self.start_weekday <= 6:
            raise ConfigurationError(
                f"start weekday must be in [0, 6], got {self.start_weekday}")
        if self.slot_hours <= 0:
            raise ConfigurationError(
                f"slot_hours must be > 0, got {self.slot_hours}")


class NyisoLikePriceGenerator:
    """Generates the two price series from a :class:`PriceModel`."""

    def __init__(self, model: PriceModel | None = None):
        self.model = model or PriceModel()

    def _base_curve(self, n_slots: int) -> np.ndarray:
        """Deterministic expected real-time price per slot ($/MWh)."""
        model = self.model
        base = np.empty(n_slots)
        for slot in range(n_slots):
            hour = int((slot * model.slot_hours) % 24)
            day = int((slot * model.slot_hours) // 24)
            weekday = (model.start_weekday + day) % 7
            shape = _DIURNAL_SHAPE[hour]
            if weekday >= 5:
                shape *= model.weekend_factor
            base[slot] = model.mean_price * shape
        return base

    def real_time_prices(self, n_slots: int,
                         rng: np.random.Generator) -> np.ndarray:
        """Sample the real-time price series ``prt(τ)``."""
        model = self.model
        base = self._base_curve(n_slots)
        # Persistent lognormal noise: AR(1) in log-space, mean-corrected
        # so the noise multiplier has expectation close to one.
        log_noise = 0.0
        scale = model.noise_sigma * math.sqrt(1.0 - model.noise_rho ** 2)
        prices = np.empty(n_slots)
        for index in range(n_slots):
            log_noise = (model.noise_rho * log_noise
                         + scale * rng.standard_normal())
            multiplier = math.exp(log_noise - model.noise_sigma ** 2 / 2.0)
            price = base[index] * multiplier
            if rng.random() < model.spike_probability:
                price *= model.spike_scale * (1.0 + 0.5 * rng.random())
            prices[index] = price
        return np.clip(prices, model.price_floor, model.price_cap)

    def forward_curve(self, n_slots: int,
                      rng: np.random.Generator) -> np.ndarray:
        """Sample the hourly long-term-ahead forward curve.

        The curve tracks the *expected* diurnal shape (a forward market
        prices the expectation, not realizations) at the contract
        discount, with mild noise for forecast imperfection.
        """
        model = self.model
        base = self._base_curve(n_slots)
        noise = 1.0 + model.forward_noise_sigma * rng.standard_normal(n_slots)
        curve = base * model.forward_discount * np.clip(noise, 0.5, 1.5)
        return np.clip(curve, model.price_floor, model.price_cap)

    def generate(self, n_slots: int, rng: np.random.Generator,
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Generate ``(price_rt, price_lt_hourly)`` together.

        Uses independent substreams drawn sequentially from ``rng``;
        call with a dedicated generator for reproducibility.
        """
        if n_slots < 1:
            raise ConfigurationError(f"n_slots must be >= 1, got {n_slots}")
        real_time = self.real_time_prices(n_slots, rng)
        forward = self.forward_curve(n_slots, rng)
        return real_time, forward


class PriceTraceKernel:
    """Vectorized two-market price generation for a batch of scenarios.

    The ``stream`` trace family separates the AR(1) normals from the
    scarcity-spike uniforms and always draws two spike uniforms per
    slot (trigger and magnitude, the magnitude unused on non-spike
    slots); fixed per-slot consumption from each substream is what
    lets both batch as single array draws.  The AR(1) log-noise
    batches one ``standard_normal(n)`` per scenario and scans the
    carry in the per-slot recursion's FP order, spike triggers and
    magnitudes come from one ``random(2n)`` per scenario (even slots
    trigger, odd slots magnitude), and the forward curve is a single
    batched draw per window.  Bit-identical, per scenario and for any
    chunking, to the per-slot references in
    ``tests/oracles/stream_traces.py``.
    """

    def __init__(self, models: Sequence[PriceModel]):
        if not models:
            raise ConfigurationError("need at least one price model")
        self.models = tuple(models)
        self._mean = np.array([m.mean_price for m in models])
        self._weekend_factor = np.array(
            [m.weekend_factor for m in models])
        self._rho = np.array([m.noise_rho for m in models])
        self._scale = np.array(
            [m.noise_sigma * math.sqrt(1.0 - m.noise_rho ** 2)
             for m in models])
        self._half_sig2 = np.array(
            [m.noise_sigma ** 2 / 2.0 for m in models])
        self._spike_probability = np.array(
            [m.spike_probability for m in models])
        self._spike_scale = np.array([m.spike_scale for m in models])
        self._discount = np.array(
            [m.forward_discount for m in models])
        self._forward_sigma = np.array(
            [m.forward_noise_sigma for m in models])
        self._floor = np.array([m.price_floor for m in models])
        self._cap = np.array([m.price_cap for m in models])
        self._time_groups: dict[tuple[float, int], list[int]] = {}
        for index, model in enumerate(models):
            key = (model.slot_hours, model.start_weekday)
            self._time_groups.setdefault(key, []).append(index)

    @property
    def batch(self) -> int:
        return len(self.models)

    def _base_block(self, start_slot: int, n_slots: int) -> np.ndarray:
        """``(B, n)`` deterministic expected real-time price."""
        shapes = np.empty((self.batch, n_slots))
        for (slot_hours, weekday), rows in self._time_groups.items():
            hours, weekend = slot_time_indices(
                start_slot, n_slots, slot_hours, weekday)
            row_shapes = _DIURNAL_SHAPE[hours]
            shapes[rows] = np.where(
                weekend, row_shapes * self._weekend_factor[rows, None],
                row_shapes)
        return self._mean[:, None] * shapes

    def real_time_block(self, start_slot: int, n_slots: int,
                        rngs: Sequence[np.random.Generator],
                        spike_rngs: Sequence[np.random.Generator],
                        log_noise: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """``(B, n)`` block of ``prt`` plus the updated AR(1) carry."""
        batch = self.batch
        base = self._base_block(start_slot, n_slots)
        draws = np.empty((batch, n_slots))
        for index, rng in enumerate(rngs):
            draws[index] = rng.standard_normal(n_slots)
        levels = np.empty((batch, n_slots))
        carry = np.asarray(log_noise, dtype=float)
        rho, scale = self._rho, self._scale
        for slot in range(n_slots):
            carry = rho * carry + scale * draws[:, slot]
            levels[:, slot] = carry
        multiplier = np.exp(levels - self._half_sig2[:, None])
        prices = base * multiplier
        spikes = np.empty((batch, 2 * n_slots))
        for index, rng in enumerate(spike_rngs):
            spikes[index] = rng.random(2 * n_slots)
        trigger = spikes[:, 0::2]
        magnitude = spikes[:, 1::2]
        factor = self._spike_scale[:, None] * (1.0 + 0.5 * magnitude)
        prices = np.where(trigger < self._spike_probability[:, None],
                          prices * factor, prices)
        prices = np.clip(prices, self._floor[:, None],
                         self._cap[:, None])
        return prices, carry

    def forward_block(self, start_slot: int, n_slots: int,
                      rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """``(B, n)`` block of the hourly forward curve."""
        batch = self.batch
        base = self._base_block(start_slot, n_slots)
        noise = np.empty((batch, n_slots))
        for index, rng in enumerate(rngs):
            noise[index] = (1.0 + self._forward_sigma[index]
                            * rng.standard_normal(n_slots))
        curve = (base * self._discount[:, None]
                 * np.clip(noise, 0.5, 1.5))
        return np.clip(curve, self._floor[:, None], self._cap[:, None])
