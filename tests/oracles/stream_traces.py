"""Per-slot references for the ``stream`` trace family.

The library generates ``stream`` recipes only through the vectorized
kernels (:class:`~repro.traces.demand.DemandTraceKernel`,
:class:`~repro.traces.solar.SolarTraceKernel`,
:class:`~repro.traces.prices.PriceTraceKernel`), driven by
:class:`~repro.fleet.stream.BatchTraceStream`.  This module states the
same draw discipline one slot at a time, so a test can compare the two
bit for bit:

* :func:`delay_sensitive_stream_chunk`,
  :func:`delay_tolerant_stream_chunk`, :func:`generate_chunk` (solar),
  :func:`real_time_stream_chunk` and :func:`forward_curve_chunk` —
  one window ``[start_slot, start_slot + n_slots)`` of one component,
  with explicit carry state (:class:`DemandChunkState`,
  :class:`SolarChunkState`, :class:`PriceChunkState`) threaded between
  windows, so sequential windows concatenate to the same series for
  every chunking;
* :class:`StreamCursor` — one scenario's sequential reader: the five
  series drawn from the nine named substreams of its seed, then the
  ``Pgrid`` peak clip (:func:`~repro.traces.scaling.clip_demand_peaks`).

The stream family splits every compound draw into fixed per-slot
consumption from its own substream (job counts and job sizes, the AR(1)
normals and the spike uniforms), and exponentiates with
:func:`numpy.exp`, the kernels' transcendental.  The ``paper`` family
(:func:`~repro.traces.library.make_paper_traces`) shares one generator
per component and is its own trace universe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError, TraceError
from repro.fleet.stream import _SUBSTREAMS, StreamingPaperTraces
from repro.rng import make_rng
from repro.traces.base import TraceSet
from repro.traces.demand import (
    _BATCH_SHAPE,
    _MAIL_SHAPE,
    _SEARCH_SHAPE,
    DemandModel,
)
from repro.traces.prices import _DIURNAL_SHAPE, PriceModel
from repro.traces.scaling import clip_demand_peaks
from repro.traces.solar import SolarModel, _capacity_factors


@dataclass
class DemandChunkState:
    """Carry-over AR(1) log-noise level of the delay-sensitive demand."""

    log_noise: float = 0.0


@dataclass
class SolarChunkState:
    """Carry-over solar state: the Markov cloud regime (``-1`` before
    any slot is generated) and the AR(1) disturbance level."""

    cloud_state: int = -1
    noise_level: float = 0.0


@dataclass
class PriceChunkState:
    """Carry-over AR(1) log-noise level of the real-time price."""

    log_noise: float = 0.0


# ----------------------------------------------------------------------
# Demand
# ----------------------------------------------------------------------


def _hour(model, slot: int) -> int:
    return int((slot * model.slot_hours) % 24)


def _weekday(model, slot: int) -> int:
    day = int((slot * model.slot_hours) // 24)
    return (model.start_weekday + day) % 7


def delay_sensitive_stream_chunk(model: DemandModel, start_slot: int,
                                 n_slots: int, rng: np.random.Generator,
                                 state: DemandChunkState) -> np.ndarray:
    """``dds`` for slots ``[start_slot, start_slot + n_slots)``.

    One ``standard_normal`` per slot drives the AR(1) log noise, whose
    level ``state`` carries between windows; the multiplier is
    exponentiated with :func:`numpy.exp`.
    """
    series = np.empty(n_slots)
    log_noise = state.log_noise
    scale = model.noise_sigma * math.sqrt(1.0 - model.noise_rho ** 2)
    half_sig2 = model.noise_sigma ** 2 / 2.0
    for index in range(n_slots):
        slot = start_slot + index
        hour = _hour(model, slot)
        weekend = _weekday(model, slot) >= 5
        factor = model.weekend_factor if weekend else 1.0
        interactive = (model.search_peak_mw * _SEARCH_SHAPE[hour]
                       + model.mail_peak_mw * _MAIL_SHAPE[hour]) * factor
        log_noise = (model.noise_rho * log_noise
                     + scale * rng.standard_normal())
        multiplier = np.exp(log_noise - half_sig2)
        power = model.static_floor_mw + interactive * multiplier
        series[index] = max(0.0, power * model.slot_hours)
    state.log_noise = float(log_noise)
    return series


def delay_tolerant_stream_chunk(model: DemandModel, start_slot: int,
                                n_slots: int,
                                count_rng: np.random.Generator,
                                size_rng: np.random.Generator
                                ) -> np.ndarray:
    """``ddt`` for slots ``[start_slot, start_slot + n_slots)``.

    Job counts draw from ``count_rng`` (one Poisson per slot) and job
    sizes from ``size_rng`` (one lognormal per job), the order the
    kernel's counts-then-split consumes both substreams in.  Per-slot
    totals accumulate left to right — the same addition order
    ``numpy.bincount`` uses.
    """
    series = np.empty(n_slots)
    log_median = math.log(model.batch_job_energy_mwh) \
        if model.batch_job_energy_mwh > 0 else 0.0
    for index in range(n_slots):
        hour = _hour(model, start_slot + index)
        rate = (model.batch_jobs_per_hour * _BATCH_SHAPE[hour]
                * model.slot_hours)
        n_jobs = count_rng.poisson(rate)
        if n_jobs == 0 or model.batch_job_energy_mwh == 0:
            series[index] = 0.0
            continue
        sizes = size_rng.lognormal(mean=log_median,
                                   sigma=model.batch_sigma, size=n_jobs)
        total = 0.0
        for size in sizes.tolist():
            total += size
        series[index] = min(total, model.d_dt_max)
    return series


# ----------------------------------------------------------------------
# Solar
# ----------------------------------------------------------------------


def _clear_sky(model: SolarModel, start_slot: int,
               n_slots: int) -> np.ndarray:
    """Clear-sky energy per slot (MWh) for one window."""
    factors = _capacity_factors(model.latitude_deg, model.start_day_of_year,
                                model.slot_hours, start_slot, n_slots)
    return model.capacity_mw * factors * model.slot_hours


def _cloud_states(model: SolarModel, n_slots: int,
                  rng: np.random.Generator,
                  state: SolarChunkState) -> np.ndarray:
    """Continue the Markov regime path for ``n_slots`` more slots.

    The first overall slot (``state.cloud_state < 0``) draws a uniform
    initial regime; every later slot draws one transition, so the draw
    count per slot is fixed and chunk-size invariant.
    """
    persistence = model.cloud_persistence
    switch = (1.0 - persistence) / 2.0
    transition = np.full((3, 3), switch)
    np.fill_diagonal(transition, persistence)
    states = np.empty(n_slots, dtype=int)
    current = state.cloud_state
    for index in range(n_slots):
        if current < 0:
            current = int(rng.integers(0, 3))
        else:
            current = int(rng.choice(3, p=transition[current]))
        states[index] = current
    state.cloud_state = current
    return states


def _noise_path(model: SolarModel, n_slots: int,
                rng: np.random.Generator,
                state: SolarChunkState) -> np.ndarray:
    """Continue the mean-one AR(1) disturbance for ``n_slots`` slots."""
    noise = np.empty(n_slots)
    level = state.noise_level
    scale = model.noise_sigma * math.sqrt(1.0 - model.noise_rho ** 2)
    for index in range(n_slots):
        level = model.noise_rho * level + scale * rng.standard_normal()
        noise[index] = max(0.0, 1.0 + level)
    state.noise_level = level
    return noise


def generate_chunk(model: SolarModel, start_slot: int, n_slots: int,
                   cloud_rng: np.random.Generator,
                   jitter_rng: np.random.Generator,
                   noise_rng: np.random.Generator,
                   state: SolarChunkState) -> np.ndarray:
    """``r(τ)`` for slots ``[start_slot, start_slot + n_slots)``.

    Each stochastic component draws from its *own* sequential
    generator (so window boundaries do not reorder draws across
    components) and ``state`` carries the Markov regime and AR(1)
    level between windows.
    """
    if n_slots < 1:
        raise ConfigurationError(f"n_slots must be >= 1, got {n_slots}")
    clear_sky = _clear_sky(model, start_slot, n_slots)
    states = _cloud_states(model, n_slots, cloud_rng, state)
    attenuation = np.asarray(model.cloud_attenuation)[states]
    jitter = np.clip(1.0 + 0.10 * jitter_rng.standard_normal(n_slots),
                     0.0, None)
    noise = _noise_path(model, n_slots, noise_rng, state)
    series = clear_sky * attenuation * jitter * noise
    return np.clip(series, 0.0, model.capacity_mw * model.slot_hours)


# ----------------------------------------------------------------------
# Prices
# ----------------------------------------------------------------------


def _base_curve(model: PriceModel, n_slots: int,
                start_slot: int) -> np.ndarray:
    """Deterministic expected real-time price per slot ($/MWh)."""
    base = np.empty(n_slots)
    for index in range(n_slots):
        slot = start_slot + index
        hour = int((slot * model.slot_hours) % 24)
        day = int((slot * model.slot_hours) // 24)
        weekday = (model.start_weekday + day) % 7
        shape = _DIURNAL_SHAPE[hour]
        if weekday >= 5:
            shape *= model.weekend_factor
        base[index] = model.mean_price * shape
    return base


def real_time_stream_chunk(model: PriceModel, start_slot: int,
                           n_slots: int, rng: np.random.Generator,
                           spike_rng: np.random.Generator,
                           state: PriceChunkState) -> np.ndarray:
    """``prt`` for slots ``[start_slot, start_slot + n_slots)``.

    The AR(1) normals come from ``rng`` and the scarcity-spike
    uniforms from ``spike_rng``, two per slot (trigger and magnitude,
    the magnitude discarded on non-spike slots): fixed per-slot
    consumption from each substream is what lets the kernel batch both
    as single array draws.
    """
    base = _base_curve(model, n_slots, start_slot)
    log_noise = state.log_noise
    scale = model.noise_sigma * math.sqrt(1.0 - model.noise_rho ** 2)
    half_sig2 = model.noise_sigma ** 2 / 2.0
    prices = np.empty(n_slots)
    for index in range(n_slots):
        log_noise = (model.noise_rho * log_noise
                     + scale * rng.standard_normal())
        multiplier = np.exp(log_noise - half_sig2)
        price = base[index] * multiplier
        trigger = spike_rng.random()
        magnitude = spike_rng.random()
        if trigger < model.spike_probability:
            price *= model.spike_scale * (1.0 + 0.5 * magnitude)
        prices[index] = price
    state.log_noise = float(log_noise)
    return np.clip(prices, model.price_floor, model.price_cap)


def forward_curve_chunk(model: PriceModel, start_slot: int, n_slots: int,
                        rng: np.random.Generator) -> np.ndarray:
    """The hourly forward curve for ``[start_slot, start_slot + n)``.

    Memoryless across slots (one normal draw per slot), so a dedicated
    sequential ``rng`` is the only chunking requirement.
    """
    base = _base_curve(model, n_slots, start_slot)
    noise = 1.0 + model.forward_noise_sigma * rng.standard_normal(n_slots)
    curve = base * model.forward_discount * np.clip(noise, 0.5, 1.5)
    return np.clip(curve, model.price_floor, model.price_cap)


# ----------------------------------------------------------------------
# One scenario's sequential reader
# ----------------------------------------------------------------------


@dataclass
class _CursorState:
    demand: DemandChunkState = field(default_factory=DemandChunkState)
    solar: SolarChunkState = field(default_factory=SolarChunkState)
    price: PriceChunkState = field(default_factory=PriceChunkState)


class StreamCursor:
    """Per-slot reference reader over one :class:`StreamingPaperTraces`.

    Holds one generator per named substream of the stream's seed
    (created once, advanced strictly per slot) plus the AR(1)/Markov
    carry state, so successive :meth:`read` calls continue every
    process where the previous window left it.  A batch cursor's row
    for this stream must equal these windows bit for bit.
    """

    def __init__(self, stream: StreamingPaperTraces):
        self._stream = stream
        self._rngs = {name: make_rng(stream.seed, name)
                      for name in _SUBSTREAMS}
        self._state = _CursorState()
        self._position = 0

    def read(self, n_slots: int) -> TraceSet:
        """The next ``n_slots`` slots as one :class:`TraceSet` window."""
        stream = self._stream
        start = self._position
        if start + n_slots > stream.n_slots:
            raise TraceError(
                f"read past end of stream: [{start}, {start + n_slots}) "
                f"of {stream.n_slots} slots")
        state = self._state
        rngs = self._rngs
        demand_ds = delay_sensitive_stream_chunk(
            stream.demand_model, start, n_slots, rngs["stream:demand_ds"],
            state.demand)
        demand_dt = delay_tolerant_stream_chunk(
            stream.demand_model, start, n_slots, rngs["stream:demand_dt"],
            rngs["stream:demand_dt:sizes"])
        renewable = generate_chunk(
            stream.solar_model, start, n_slots, rngs["stream:solar:clouds"],
            rngs["stream:solar:jitter"], rngs["stream:solar:noise"],
            state.solar)
        price_rt = real_time_stream_chunk(
            stream.price_model, start, n_slots, rngs["stream:price_rt"],
            rngs["stream:price_rt:spikes"], state.price)
        price_lt = forward_curve_chunk(
            stream.price_model, start, n_slots, rngs["stream:price_lt"])
        self._position = start + n_slots

        window = TraceSet(
            demand_ds=demand_ds,
            demand_dt=demand_dt,
            renewable=renewable,
            price_rt=price_rt,
            price_lt_hourly=price_lt,
            meta={"seed": stream.seed, "source": "StreamingPaperTraces",
                  "window_start": start},
        )
        if stream.clip_p_grid is not None and stream.clip_p_grid > 0:
            window = clip_demand_peaks(window, stream.clip_p_grid)
        return window
