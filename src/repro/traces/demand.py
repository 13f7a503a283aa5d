"""Google-cluster-like synthetic datacenter power demand.

The paper replays a Google cluster power trace whose workload mix it
describes as "delay-sensitive Websearch and Webmail services and
delay-tolerant Mapreduce workload" (Section VI-A), scaled so peaks stay
below ``Pgrid``.  The trace itself is proprietary, so this module builds
the two aggregate series SmartDPSS consumes from that description:

* **delay-sensitive** ``dds(τ)`` — a static infrastructure floor plus
  two interactive components: Websearch (strong daytime diurnal cycle,
  weekend dip) and Webmail (flatter, morning/evening humps), both with
  persistent multiplicative noise;
* **delay-tolerant** ``ddt(τ)`` — MapReduce-style batch arrivals: a
  compound process of Poisson job submissions with heavy-tailed
  (lognormal) per-job energy, with a submission-rate bump in working
  hours; per-slot arrivals clip at the model cap ``Ddtmax``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.traces.base import slot_time_indices


#: Hour-of-day multiplier for Websearch-style interactive load.
_SEARCH_SHAPE = np.array([
    0.55, 0.48, 0.44, 0.42, 0.44, 0.52,
    0.66, 0.82, 0.95, 1.05, 1.12, 1.16,
    1.18, 1.17, 1.15, 1.14, 1.15, 1.18,
    1.20, 1.16, 1.05, 0.92, 0.78, 0.64,
])

#: Hour-of-day multiplier for Webmail-style load (morning/evening humps).
_MAIL_SHAPE = np.array([
    0.70, 0.62, 0.58, 0.56, 0.58, 0.68,
    0.92, 1.12, 1.20, 1.12, 1.02, 0.98,
    0.96, 0.94, 0.92, 0.94, 1.00, 1.10,
    1.18, 1.22, 1.15, 1.02, 0.90, 0.78,
])

#: Hour-of-day submission-rate multiplier for batch (MapReduce) jobs.
_BATCH_SHAPE = np.array([
    1.15, 1.20, 1.25, 1.25, 1.20, 1.10,
    0.95, 0.85, 0.90, 1.00, 1.05, 1.05,
    1.00, 1.00, 1.05, 1.05, 1.00, 0.95,
    0.90, 0.90, 0.95, 1.00, 1.05, 1.10,
])


@dataclass(frozen=True)
class DemandModel:
    """Parameters of the synthetic demand mix.

    Attributes
    ----------
    search_peak_mw / mail_peak_mw:
        Approximate daytime peaks of the two interactive services.
    static_floor_mw:
        Always-on infrastructure draw (cooling fans, network, idle).
    batch_jobs_per_hour:
        Mean MapReduce submission rate.
    batch_job_energy_mwh:
        Median per-job energy; job sizes are lognormal around it.
    batch_sigma:
        Lognormal shape of per-job energy (heavy tail).
    d_dt_max:
        Per-slot cap on delay-tolerant arrivals [paper ``Ddtmax``].
    weekend_factor:
        Interactive-load multiplier on Saturdays/Sundays.
    noise_rho / noise_sigma:
        AR(1) persistence and scale of the interactive noise.
    start_weekday:
        Weekday of slot 0 (0 = Monday; Jan 1, 2012 → 6).
    """

    search_peak_mw: float = 0.85
    mail_peak_mw: float = 0.45
    static_floor_mw: float = 0.25
    batch_jobs_per_hour: float = 4.0
    batch_job_energy_mwh: float = 0.12
    batch_sigma: float = 0.7
    d_dt_max: float = 1.0
    weekend_factor: float = 0.85
    noise_rho: float = 0.7
    noise_sigma: float = 0.06
    start_weekday: int = 6
    slot_hours: float = 1.0

    def __post_init__(self) -> None:
        positives = {
            "search_peak_mw": self.search_peak_mw,
            "mail_peak_mw": self.mail_peak_mw,
            "batch_jobs_per_hour": self.batch_jobs_per_hour,
            "batch_job_energy_mwh": self.batch_job_energy_mwh,
            "d_dt_max": self.d_dt_max,
        }
        for name, value in positives.items():
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if self.static_floor_mw < 0:
            raise ConfigurationError(
                f"static floor must be >= 0, got {self.static_floor_mw}")
        if not 0 < self.weekend_factor <= 1:
            raise ConfigurationError(
                f"weekend factor must be in (0, 1], got "
                f"{self.weekend_factor}")
        if not 0 <= self.noise_rho < 1:
            raise ConfigurationError(
                f"noise_rho must be in [0, 1), got {self.noise_rho}")
        if self.noise_sigma < 0 or self.batch_sigma < 0:
            raise ConfigurationError("noise scales must be >= 0")
        if not 0 <= self.start_weekday <= 6:
            raise ConfigurationError(
                f"start weekday must be in [0, 6], got {self.start_weekday}")
        if self.slot_hours <= 0:
            raise ConfigurationError(
                f"slot_hours must be > 0, got {self.slot_hours}")


class GoogleClusterDemandGenerator:
    """Generates ``(dds, ddt)`` series from a :class:`DemandModel`."""

    def __init__(self, model: DemandModel | None = None):
        self.model = model or DemandModel()

    def _weekday(self, slot: int) -> int:
        day = int((slot * self.model.slot_hours) // 24)
        return (self.model.start_weekday + day) % 7

    def _hour(self, slot: int) -> int:
        return int((slot * self.model.slot_hours) % 24)

    def delay_sensitive(self, n_slots: int,
                        rng: np.random.Generator) -> np.ndarray:
        """Sample the delay-sensitive series ``dds(τ)`` (MWh/slot).

        The interactive noise is AR(1) in log space, one draw per slot
        from ``rng``.
        """
        model = self.model
        series = np.empty(n_slots)
        log_noise = 0.0
        scale = model.noise_sigma * math.sqrt(1.0 - model.noise_rho ** 2)
        for slot in range(n_slots):
            hour = self._hour(slot)
            weekend = self._weekday(slot) >= 5
            factor = model.weekend_factor if weekend else 1.0
            interactive = (model.search_peak_mw * _SEARCH_SHAPE[hour]
                           + model.mail_peak_mw * _MAIL_SHAPE[hour]) * factor
            log_noise = (model.noise_rho * log_noise
                         + scale * rng.standard_normal())
            multiplier = math.exp(log_noise - model.noise_sigma ** 2 / 2.0)
            power = model.static_floor_mw + interactive * multiplier
            series[slot] = max(0.0, power * model.slot_hours)
        return series

    def delay_tolerant(self, n_slots: int,
                       rng: np.random.Generator) -> np.ndarray:
        """Sample the delay-tolerant series ``ddt(τ)`` (MWh/slot).

        A compound Poisson-lognormal arrival process: bursty (many slots
        with little batch work, some with big submissions) yet with a
        stable hourly mean — the "arbitrary demand" the paper stresses.
        Per-slot arrivals clip at ``Ddtmax`` (constraint in Section
        II-A.2).
        """
        model = self.model
        series = np.empty(n_slots)
        log_median = math.log(model.batch_job_energy_mwh) \
            if model.batch_job_energy_mwh > 0 else 0.0
        for slot in range(n_slots):
            hour = self._hour(slot)
            rate = (model.batch_jobs_per_hour * _BATCH_SHAPE[hour]
                    * model.slot_hours)
            n_jobs = rng.poisson(rate)
            if n_jobs == 0 or model.batch_job_energy_mwh == 0:
                series[slot] = 0.0
                continue
            sizes = rng.lognormal(mean=log_median, sigma=model.batch_sigma,
                                  size=n_jobs)
            series[slot] = min(float(sizes.sum()), model.d_dt_max)
        return series

    def generate(self, n_slots: int, rng: np.random.Generator,
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Generate ``(dds, ddt)`` using sequential draws from ``rng``."""
        if n_slots < 1:
            raise ConfigurationError(f"n_slots must be >= 1, got {n_slots}")
        sensitive = self.delay_sensitive(n_slots, rng)
        tolerant = self.delay_tolerant(n_slots, rng)
        return sensitive, tolerant


class DemandTraceKernel:
    """Vectorized demand generation for a batch of scenarios.

    Stacks ``B`` (possibly heterogeneous) :class:`DemandModel`
    parameter sets once, then emits whole ``(B, n_slots)`` blocks per
    call: the AR(1) noise draws one batched ``standard_normal(n)`` per
    scenario and scans the carry across slots (the recursion's FP
    order is exactly the per-slot reference's), and the compound
    Poisson-lognormal arrivals draw per-slot counts in one
    ``poisson(rate_vec)`` call, all job sizes in one lognormal call,
    then split them back onto slots with ``bincount`` (sequential
    additions, matching the reference's left-to-right sums).

    This is the ``stream`` trace family's draw discipline, built so
    every component batches across slots with ``Generator`` calls that
    are sequential-draw-identical to a per-slot loop: the AR(1) noise
    takes one ``standard_normal`` per slot, and the compound arrivals
    split job *counts* and job *sizes* into two substreams (one stream
    interleaving variable-length draws cannot be batched
    bit-identically).  Transcendentals go through :func:`numpy.exp`.
    Bit-identical, for any chunking, to the per-slot references in
    ``tests/oracles/stream_traces.py`` (gated by
    ``tests/property/test_trace_kernels.py``).
    """

    def __init__(self, models: Sequence[DemandModel]):
        if not models:
            raise ConfigurationError("need at least one demand model")
        self.models = tuple(models)
        # Derived per-scenario constants use the same Python-scalar
        # arithmetic as the reference loops (``**`` and ``math.sqrt``
        # on floats), so no vector op can round differently.
        self._rho = np.array([m.noise_rho for m in models])
        self._scale = np.array(
            [m.noise_sigma * math.sqrt(1.0 - m.noise_rho ** 2)
             for m in models])
        self._half_sig2 = np.array(
            [m.noise_sigma ** 2 / 2.0 for m in models])
        self._search_peak = np.array([m.search_peak_mw for m in models])
        self._mail_peak = np.array([m.mail_peak_mw for m in models])
        self._floor = np.array([m.static_floor_mw for m in models])
        self._weekend_factor = np.array(
            [m.weekend_factor for m in models])
        self._slot_hours = np.array([m.slot_hours for m in models])
        self._jobs_per_hour = np.array(
            [m.batch_jobs_per_hour for m in models])
        self._batch_sigma = [m.batch_sigma for m in models]
        self._job_energy = [m.batch_job_energy_mwh for m in models]
        self._log_median = [
            math.log(m.batch_job_energy_mwh)
            if m.batch_job_energy_mwh > 0 else 0.0 for m in models]
        self._d_dt_max = np.array([m.d_dt_max for m in models])
        self._time_groups: dict[tuple[float, int], list[int]] = {}
        for index, model in enumerate(models):
            key = (model.slot_hours, model.start_weekday)
            self._time_groups.setdefault(key, []).append(index)

    @property
    def batch(self) -> int:
        return len(self.models)

    def _time_indices(self, start_slot: int, n_slots: int
                      ) -> tuple[np.ndarray, np.ndarray]:
        """``(B, n)`` hour indices and weekend masks per scenario."""
        hours = np.empty((self.batch, n_slots), dtype=np.int64)
        weekend = np.empty((self.batch, n_slots), dtype=bool)
        for (slot_hours, weekday), rows in self._time_groups.items():
            hour_row, weekend_row = slot_time_indices(
                start_slot, n_slots, slot_hours, weekday)
            hours[rows] = hour_row
            weekend[rows] = weekend_row
        return hours, weekend

    def sensitive_block(self, start_slot: int, n_slots: int,
                        rngs: Sequence[np.random.Generator],
                        log_noise: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """``(B, n)`` block of ``dds`` plus the updated AR(1) carry."""
        batch = self.batch
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
        hours, weekend = self._time_indices(start_slot, n_slots)
        interactive = (self._search_peak[:, None] * _SEARCH_SHAPE[hours]
                       + self._mail_peak[:, None] * _MAIL_SHAPE[hours])
        factor = np.where(weekend, self._weekend_factor[:, None], 1.0)
        interactive = interactive * factor
        power = self._floor[:, None] + interactive * multiplier
        series = np.maximum(0.0, power * self._slot_hours[:, None])
        return series, carry

    def tolerant_block(self, start_slot: int, n_slots: int,
                       count_rngs: Sequence[np.random.Generator],
                       size_rngs: Sequence[np.random.Generator]
                       ) -> np.ndarray:
        """``(B, n)`` block of ``ddt`` via counts-then-split."""
        batch = self.batch
        hours, _ = self._time_indices(start_slot, n_slots)
        rate = (self._jobs_per_hour[:, None] * _BATCH_SHAPE[hours]
                * self._slot_hours[:, None])
        counts = np.empty((batch, n_slots), dtype=np.int64)
        for index, rng in enumerate(count_rngs):
            counts[index] = rng.poisson(rate[index])
        series = np.zeros((batch, n_slots))
        slot_ids = np.arange(n_slots)
        for index, rng in enumerate(size_rngs):
            total = int(counts[index].sum())
            if total == 0 or self._job_energy[index] == 0:
                continue
            sizes = rng.lognormal(mean=self._log_median[index],
                                  sigma=self._batch_sigma[index],
                                  size=total)
            series[index] = np.bincount(
                np.repeat(slot_ids, counts[index]), weights=sizes,
                minlength=n_slots)
        return np.minimum(series, self._d_dt_max[:, None])
