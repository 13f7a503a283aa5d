"""MIDC-like synthetic solar production (substitute for NREL MIDC data).

The paper uses one month (January 2012) of measured solar meteorology
from NREL's Measurement and Instrumentation Data Center for a central-US
site.  That data is not redistributable, so this module generates a
statistically matched series from first principles:

1. **clear-sky envelope** — solar elevation from standard solar geometry
   (declination + hour angle at a central-US latitude in January) sets
   the deterministic diurnal/seasonal shape;
2. **cloud regimes** — a 3-state Markov chain (clear / partly cloudy /
   overcast) with hour-scale persistence reproduces the day-to-day
   intermittency that makes renewable supply "uncertain" in the paper;
3. **short-term noise** — a mean-one AR(1) multiplicative disturbance
   adds the minute-scale ramps aggregated into hourly slots.

Only the resulting *power series* ``r(τ)`` enters SmartDPSS, so matching
these three statistical features is what preserves the paper's
behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class SolarModel:
    """Parameters of the synthetic solar plant and sky model.

    Attributes
    ----------
    capacity_mw:
        Nameplate plant capacity; clear-noon output approaches it.
    latitude_deg:
        Site latitude; default is NREL's Golden, CO campus (39.74°N),
        the flagship MIDC site.
    start_day_of_year:
        First simulated day (1 = Jan 1, matching the paper's window).
    cloud_attenuation:
        Mean capacity-factor multiplier per cloud regime, indexed by
        the regime: 0 clear, 1 partly cloudy, 2 overcast.
    cloud_persistence:
        Probability of staying in the current cloud regime each hour.
    noise_rho / noise_sigma:
        AR(1) coefficient and innovation scale of the multiplicative
        short-term disturbance.
    """

    capacity_mw: float = 4.0
    latitude_deg: float = 39.74
    start_day_of_year: int = 1
    cloud_attenuation: tuple[float, float, float] = (1.0, 0.55, 0.12)
    cloud_persistence: float = 0.88
    noise_rho: float = 0.6
    noise_sigma: float = 0.08
    slot_hours: float = 1.0

    def __post_init__(self) -> None:
        if self.capacity_mw < 0:
            raise ConfigurationError(
                f"solar capacity must be >= 0, got {self.capacity_mw}")
        if not -90 <= self.latitude_deg <= 90:
            raise ConfigurationError(
                f"latitude must be in [-90, 90], got {self.latitude_deg}")
        if not 0 < self.cloud_persistence < 1:
            raise ConfigurationError(
                f"cloud persistence must be in (0, 1), got "
                f"{self.cloud_persistence}")
        if len(self.cloud_attenuation) != 3:
            raise ConfigurationError("cloud_attenuation needs 3 regimes")
        if any(not 0 <= a <= 1 for a in self.cloud_attenuation):
            raise ConfigurationError(
                f"cloud attenuations must lie in [0, 1], got "
                f"{self.cloud_attenuation}")
        if not 0 <= self.noise_rho < 1:
            raise ConfigurationError(
                f"noise_rho must be in [0, 1), got {self.noise_rho}")
        if self.noise_sigma < 0:
            raise ConfigurationError(
                f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.slot_hours <= 0:
            raise ConfigurationError(
                f"slot_hours must be > 0, got {self.slot_hours}")


def solar_declination_deg(day_of_year: float) -> float:
    """Solar declination (degrees) via the Cooper approximation."""
    return -23.45 * math.cos(math.radians(360.0 / 365.0 * (day_of_year + 10)))


def solar_elevation_sin(latitude_deg: float, day_of_year: float,
                        hour_of_day: float) -> float:
    """Sine of the solar elevation angle (0 when the sun is below horizon)."""
    lat = math.radians(latitude_deg)
    decl = math.radians(solar_declination_deg(day_of_year))
    hour_angle = math.radians(15.0 * (hour_of_day - 12.0))
    sin_elev = (math.sin(lat) * math.sin(decl)
                + math.cos(lat) * math.cos(decl) * math.cos(hour_angle))
    return max(0.0, sin_elev)


#: Exponent shaping the air-mass attenuation near the horizon.
_AIRMASS_EXPONENT = 1.15


@lru_cache(maxsize=512)
def _capacity_factors(latitude_deg: float, start_day_of_year: int,
                      slot_hours: float, start_slot: int,
                      n_slots: int) -> np.ndarray:
    """Clear-sky capacity factors for a window (cached, read-only).

    The deterministic per-slot solar-geometry loop, shared by
    :meth:`MidcLikeSolarGenerator.clear_sky_profile` and the kernel so
    scenarios that share a sky (same latitude, calendar and slot
    length — everything except plant capacity) compute it once per
    window instead of once per scenario.
    """
    factors = np.empty(n_slots)
    for index in range(n_slots):
        slot = start_slot + index
        hour = (slot * slot_hours) % 24.0
        day = start_day_of_year + (slot * slot_hours) / 24.0
        sin_elev = solar_elevation_sin(latitude_deg, day, hour)
        factors[index] = sin_elev ** _AIRMASS_EXPONENT
    factors.setflags(write=False)
    return factors


def _cloud_cdf_table(persistence: float) -> np.ndarray:
    """Per-state transition CDFs, exactly as ``Generator.choice`` forms
    them (row cumsum, then normalization by the row total)."""
    switch = (1.0 - persistence) / 2.0
    transition = np.full((3, 3), switch)
    np.fill_diagonal(transition, persistence)
    cdf = transition.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return cdf


class MidcLikeSolarGenerator:
    """Generates hourly solar energy series from a :class:`SolarModel`."""

    #: Exponent shaping the air-mass attenuation near the horizon.
    _AIRMASS_EXPONENT = _AIRMASS_EXPONENT

    def __init__(self, model: SolarModel | None = None):
        self.model = model or SolarModel()

    def clear_sky_profile(self, n_slots: int) -> np.ndarray:
        """Deterministic clear-sky energy per slot (MWh)."""
        model = self.model
        factors = _capacity_factors(model.latitude_deg,
                                    model.start_day_of_year,
                                    model.slot_hours, 0, n_slots)
        return model.capacity_mw * factors * model.slot_hours

    def cloud_states(self, n_slots: int,
                     rng: np.random.Generator) -> np.ndarray:
        """Sample the 3-state Markov cloud-regime path.

        The first slot draws a uniform initial regime; every later slot
        draws one transition.
        """
        persistence = self.model.cloud_persistence
        switch = (1.0 - persistence) / 2.0
        transition = np.full((3, 3), switch)
        np.fill_diagonal(transition, persistence)
        states = np.empty(n_slots, dtype=int)
        current = -1
        for index in range(n_slots):
            if current < 0:
                current = int(rng.integers(0, 3))
            else:
                current = int(rng.choice(3, p=transition[current]))
            states[index] = current
        return states

    def noise_path(self, n_slots: int,
                   rng: np.random.Generator) -> np.ndarray:
        """Mean-one AR(1) multiplicative disturbance, floored at zero."""
        model = self.model
        noise = np.empty(n_slots)
        level = 0.0
        scale = model.noise_sigma * math.sqrt(1.0 - model.noise_rho ** 2)
        for index in range(n_slots):
            level = model.noise_rho * level + scale * rng.standard_normal()
            noise[index] = max(0.0, 1.0 + level)
        return noise

    def generate(self, n_slots: int,
                 rng: np.random.Generator) -> np.ndarray:
        """Generate the solar energy series ``r(τ)`` in MWh per slot."""
        if n_slots < 1:
            raise ConfigurationError(f"n_slots must be >= 1, got {n_slots}")
        clear_sky = self.clear_sky_profile(n_slots)
        states = self.cloud_states(n_slots, rng)
        attenuation = np.asarray(self.model.cloud_attenuation)[states]
        # Small per-hour attenuation jitter keeps regimes from looking
        # piecewise-constant while preserving their means.
        jitter = np.clip(1.0 + 0.10 * rng.standard_normal(n_slots), 0.0, None)
        noise = self.noise_path(n_slots, rng)
        series = clear_sky * attenuation * jitter * noise
        return np.clip(series, 0.0, self.model.capacity_mw
                       * self.model.slot_hours)


class SolarTraceKernel:
    """Vectorized solar generation for a batch of scenarios.

    The ``stream`` trace family draws each stochastic component (cloud
    regimes, attenuation jitter, AR(1) disturbance) from its own
    substream, so window boundaries never reorder draws across
    components.  Clear-sky profiles come from the shared
    :func:`_capacity_factors` cache (one geometry loop per distinct
    sky per window), the Markov cloud-regime path draws one batched
    ``random(n)`` per scenario and scans the regime carry with the
    exact CDF comparison ``Generator.choice`` performs, and the AR(1)
    disturbance batches its normals and scans the carry in the
    per-slot recursion's FP order.  Bit-identical, per scenario and
    for any chunking, to the per-slot reference in
    ``tests/oracles/stream_traces.py``.
    """

    def __init__(self, models: Sequence[SolarModel]):
        if not models:
            raise ConfigurationError("need at least one solar model")
        self.models = tuple(models)
        self._cdf01 = np.stack([_cloud_cdf_table(m.cloud_persistence)
                                for m in models])[:, :, :2]
        self._attenuation = np.array([m.cloud_attenuation
                                      for m in models])
        self._rho = np.array([m.noise_rho for m in models])
        self._scale = np.array(
            [m.noise_sigma * math.sqrt(1.0 - m.noise_rho ** 2)
             for m in models])
        self._cap_slot = np.array(
            [m.capacity_mw * m.slot_hours for m in models])

    @property
    def batch(self) -> int:
        return len(self.models)

    def _clear_sky_block(self, start_slot: int,
                         n_slots: int) -> np.ndarray:
        rows = np.empty((self.batch, n_slots))
        for index, model in enumerate(self.models):
            factors = _capacity_factors(
                model.latitude_deg, model.start_day_of_year,
                model.slot_hours, start_slot, n_slots)
            rows[index] = model.capacity_mw * factors * model.slot_hours
        return rows

    def _cloud_states_block(self, n_slots: int,
                            rngs: Sequence[np.random.Generator],
                            cloud_state: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Continue every scenario's Markov path for ``n_slots`` slots.

        Draw order per scenario matches the per-slot reference: a fresh path
        (carry ``< 0``) consumes one ``integers(0, 3)`` for its initial
        regime, then one uniform per remaining slot; a continuing path
        consumes one uniform per slot.  Each uniform is resolved
        through the same normalized-CDF ``searchsorted`` comparison
        ``Generator.choice`` applies, so regimes are bit-identical.
        """
        batch = self.batch
        current = np.asarray(cloud_state, dtype=np.int64).copy()
        fresh = current < 0
        uniforms = np.empty((batch, n_slots))
        for index, rng in enumerate(rngs):
            if fresh[index]:
                current[index] = int(rng.integers(0, 3))
                uniforms[index, 0] = -1.0  # unused: slot 0 is the init
                if n_slots > 1:
                    uniforms[index, 1:] = rng.random(n_slots - 1)
            else:
                uniforms[index] = rng.random(n_slots)
        states = np.empty((batch, n_slots), dtype=np.int64)
        rows = np.arange(batch)
        continuing = ~fresh
        for slot in range(n_slots):
            u = uniforms[:, slot]
            if slot == 0 and fresh.any():
                if continuing.any():
                    bounds = self._cdf01[rows, current]
                    stepped = ((u >= bounds[:, 0]).astype(np.int64)
                               + (u >= bounds[:, 1]))
                    current = np.where(continuing, stepped, current)
            else:
                bounds = self._cdf01[rows, current]
                current = ((u >= bounds[:, 0]).astype(np.int64)
                           + (u >= bounds[:, 1]))
            states[:, slot] = current
        return states, current

    def block(self, start_slot: int, n_slots: int,
              cloud_rngs: Sequence[np.random.Generator],
              jitter_rngs: Sequence[np.random.Generator],
              noise_rngs: Sequence[np.random.Generator],
              cloud_state: np.ndarray, noise_level: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(B, n)`` renewable block plus updated carries.

        Returns ``(series, cloud_state, noise_level)``; the carry
        arrays are fresh (inputs are not mutated).
        """
        if n_slots < 1:
            raise ConfigurationError(f"n_slots must be >= 1, got {n_slots}")
        batch = self.batch
        clear_sky = self._clear_sky_block(start_slot, n_slots)
        states, cloud_carry = self._cloud_states_block(
            n_slots, cloud_rngs, cloud_state)
        attenuation = self._attenuation[
            np.arange(batch)[:, None], states]
        jitter = np.empty((batch, n_slots))
        for index, rng in enumerate(jitter_rngs):
            jitter[index] = np.clip(
                1.0 + 0.10 * rng.standard_normal(n_slots), 0.0, None)
        draws = np.empty((batch, n_slots))
        for index, rng in enumerate(noise_rngs):
            draws[index] = rng.standard_normal(n_slots)
        levels = np.empty((batch, n_slots))
        carry = np.asarray(noise_level, dtype=float)
        rho, scale = self._rho, self._scale
        for slot in range(n_slots):
            carry = rho * carry + scale * draws[:, slot]
            levels[:, slot] = carry
        noise = np.maximum(0.0, 1.0 + levels)
        series = clear_sky * attenuation * jitter * noise
        series = np.clip(series, 0.0, self._cap_slot[:, None])
        return series, cloud_carry, carry
