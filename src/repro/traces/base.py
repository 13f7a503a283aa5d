"""Trace containers.

A :class:`Trace` is a validated, immutable time series over fine-grained
slots.  A :class:`TraceSet` bundles the five series every experiment
needs — delay-sensitive demand, delay-tolerant demand, renewable
production, real-time price and the hourly long-term forward curve — and
derives per-coarse-slot long-term prices for any coarse length ``T``
(which is how the Fig. 6(c,d) ``T``-sweep reuses one set of hourly
traces).

A :class:`TraceBlock` is the batched counterpart: the same five series
for ``B`` scenarios at once as ``(B, n_slots)`` arrays.  It is what the
vectorized trace kernels (:class:`~repro.traces.demand.DemandTraceKernel`
and friends) emit and what the streamed fleet engine consumes — one
block per window instead of ``B`` per-scenario :class:`TraceSet`
windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    HorizonMismatchError,
    TraceCorruptionError,
    TraceError,
)


def slot_time_indices(start_slot: int, n_slots: int, slot_hours: float,
                      start_weekday: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Hour-of-day and weekend indices for a window of fine slots.

    Vectorized twin of the per-slot ``int((slot * slot_hours) % 24)`` /
    ``(start_weekday + (slot * slot_hours) // 24) % 7`` arithmetic the
    scalar generators use — the exact same float64 operations, so index
    arrays match the scalar loops bit for bit.  Returns ``(hours,
    weekend)`` with ``hours`` an int array in ``[0, 24)`` and
    ``weekend`` a boolean mask (Saturday/Sunday).
    """
    slots = np.arange(start_slot, start_slot + n_slots, dtype=float)
    t = slots * slot_hours
    hours = (t % 24.0).astype(np.int64)
    days = (t // 24.0).astype(np.int64)
    weekend = (start_weekday + days) % 7 >= 5
    return hours, weekend


def _validated_array(name: str, values: object, *,
                     lower: float | None = 0.0) -> np.ndarray:
    """Convert to a read-only float array, checking finiteness/bounds
    (a bad value raises :class:`TraceCorruptionError` naming its slot)."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise TraceError(f"{name} must be one-dimensional, got shape "
                         f"{array.shape}")
    if array.size == 0:
        raise TraceError(f"{name} must be non-empty")
    finite = np.isfinite(array)
    if not finite.all():
        slot = int(np.argmin(finite))
        raise TraceCorruptionError(
            f"{name} contains NaN or infinite values (slot {slot})",
            slot=slot)
    if lower is not None and np.any(array < lower):
        slot = int(np.argmax(array < lower))
        raise TraceCorruptionError(
            f"{name} must be >= {lower}, found {float(array.min())} "
            f"(slot {slot})", slot=slot)
    array = array.copy()
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class Trace:
    """A single validated, immutable series (MWh per slot or $/MWh)."""

    name: str
    values: np.ndarray
    units: str = "MWh"

    def __init__(self, name: str, values: object, units: str = "MWh",
                 lower: float | None = 0.0):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values",
                           _validated_array(name, values, lower=lower))
        object.__setattr__(self, "units", units)

    def __len__(self) -> int:
        return int(self.values.size)

    def __getitem__(self, slot: int) -> float:
        return float(self.values[slot])

    @property
    def mean(self) -> float:
        """Time-average of the series."""
        return float(self.values.mean())

    @property
    def std(self) -> float:
        """Population standard deviation of the series."""
        return float(self.values.std())

    @property
    def peak(self) -> float:
        """Maximum value of the series."""
        return float(self.values.max())

    @property
    def total(self) -> float:
        """Sum over the horizon (total energy for MWh series)."""
        return float(self.values.sum())

    def summary(self) -> dict[str, float]:
        """Small stats dictionary used by Fig. 5 reporting."""
        return {
            "mean": self.mean,
            "std": self.std,
            "min": float(self.values.min()),
            "max": self.peak,
            "total": self.total,
        }


@dataclass(frozen=True)
class TraceSet:
    """The full input bundle for one simulation horizon.

    All five arrays share the same length ``n_slots`` (fine-grained
    slots).  Series semantics:

    demand_ds:
        delay-sensitive demand ``dds(τ)`` in MWh per slot;
    demand_dt:
        delay-tolerant demand ``ddt(τ)`` in MWh per slot;
    renewable:
        on-site renewable production ``r(τ)`` in MWh per slot;
    price_rt:
        real-time market price ``prt(τ)`` in $/MWh;
    price_lt_hourly:
        hourly long-term-ahead *forward curve* in $/MWh; the market
        price for a coarse slot of length ``T`` is its average over the
        slot (:meth:`coarse_prices`).
    """

    demand_ds: np.ndarray
    demand_dt: np.ndarray
    renewable: np.ndarray
    price_rt: np.ndarray
    price_lt_hourly: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "demand_ds",
                           _validated_array("demand_ds", self.demand_ds))
        object.__setattr__(self, "demand_dt",
                           _validated_array("demand_dt", self.demand_dt))
        object.__setattr__(self, "renewable",
                           _validated_array("renewable", self.renewable))
        object.__setattr__(self, "price_rt",
                           _validated_array("price_rt", self.price_rt))
        object.__setattr__(
            self, "price_lt_hourly",
            _validated_array("price_lt_hourly", self.price_lt_hourly))
        lengths = {
            "demand_ds": self.demand_ds.size,
            "demand_dt": self.demand_dt.size,
            "renewable": self.renewable.size,
            "price_rt": self.price_rt.size,
            "price_lt_hourly": self.price_lt_hourly.size,
        }
        if len(set(lengths.values())) != 1:
            raise HorizonMismatchError(
                f"trace series have mismatched lengths: {lengths}")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        """Number of fine-grained slots covered by the traces."""
        return int(self.demand_ds.size)

    def __len__(self) -> int:
        return self.n_slots

    # ------------------------------------------------------------------
    # Derived series
    # ------------------------------------------------------------------

    @property
    def demand_total(self) -> np.ndarray:
        """Aggregate demand ``d(τ) = dds(τ) + ddt(τ)``."""
        return self.demand_ds + self.demand_dt

    def coarse_prices(self, fine_slots_per_coarse: int) -> np.ndarray:
        """Long-term market price ``plt(k)`` for coarse slots of ``T``.

        The hourly forward curve is averaged over each coarse window,
        so one hourly trace serves every ``T`` in the Fig. 6(c,d)
        sweep.  Requires the horizon to divide evenly.
        """
        t = int(fine_slots_per_coarse)
        if t < 1:
            raise ConfigurationError(f"T must be >= 1, got {t}")
        if self.n_slots % t != 0:
            raise HorizonMismatchError(
                f"{self.n_slots} slots do not divide into coarse slots "
                f"of T={t}")
        return self.price_lt_hourly.reshape(-1, t).mean(axis=1)

    # ------------------------------------------------------------------
    # Statistics used by experiments
    # ------------------------------------------------------------------

    @property
    def renewable_penetration(self) -> float:
        """Fraction of total demand coverable by renewables."""
        total_demand = float(self.demand_total.sum())
        if total_demand == 0:
            return 0.0
        return float(self.renewable.sum()) / total_demand

    @property
    def demand_std(self) -> float:
        """Standard deviation of aggregate demand (paper Fig. 8 x-axis)."""
        return float(self.demand_total.std())

    def replace(self, **changes: object) -> "TraceSet":
        """Copy with some series replaced (used by scaling transforms)."""
        fields = {
            "demand_ds": self.demand_ds,
            "demand_dt": self.demand_dt,
            "renewable": self.renewable,
            "price_rt": self.price_rt,
            "price_lt_hourly": self.price_lt_hourly,
            "meta": dict(self.meta),
        }
        fields.update(changes)
        return TraceSet(**fields)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-series stats (drives the Fig. 5 experiment output)."""
        return {
            "demand_ds": Trace("demand_ds", self.demand_ds).summary(),
            "demand_dt": Trace("demand_dt", self.demand_dt).summary(),
            "demand_total": Trace("demand", self.demand_total).summary(),
            "renewable": Trace("renewable", self.renewable).summary(),
            "price_rt": Trace("price_rt", self.price_rt, "$/MWh").summary(),
            "price_lt_hourly": Trace("price_lt", self.price_lt_hourly,
                                     "$/MWh").summary(),
        }


#: The five series bundled by :class:`TraceSet` / :class:`TraceBlock`.
SERIES_FIELDS = ("demand_ds", "demand_dt", "renewable", "price_rt",
                 "price_lt_hourly")


@dataclass(frozen=True)
class TraceBlock:
    """A batch of scenario windows: five ``(B, n_slots)`` series.

    Semantics per series match :class:`TraceSet`; row ``b`` is scenario
    ``b``'s window.  Validation (finiteness, non-negativity, matched
    shapes) runs once over the whole block instead of ``B`` times, and
    the arrays are frozen in place rather than copied — the kernels
    hand over ownership.  A NaN, infinite or negative value raises
    :class:`~repro.exceptions.TraceCorruptionError` naming its row,
    slot and seed.
    """

    demand_ds: np.ndarray
    demand_dt: np.ndarray
    renewable: np.ndarray
    price_rt: np.ndarray
    price_lt_hourly: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        shapes = set()
        for name in SERIES_FIELDS:
            array = np.asarray(getattr(self, name), dtype=float)
            if array.ndim != 2:
                raise TraceError(
                    f"{name} must be (B, n_slots), got shape "
                    f"{array.shape}")
            if array.size == 0:
                raise TraceError(f"{name} must be non-empty")
            if not np.all(np.isfinite(array)):
                self._reject(~np.isfinite(array),
                             f"{name} contains NaN or infinite values")
            if np.any(array < 0):
                self._reject(array < 0, f"{name} must be >= 0, found "
                                        f"{float(array.min())}")
            array.setflags(write=False)
            object.__setattr__(self, name, array)
            shapes.add(array.shape)
        if len(shapes) != 1:
            raise HorizonMismatchError(
                f"trace block series have mismatched shapes: {shapes}")

    def _reject(self, bad: np.ndarray, message: str) -> None:
        """Raise a :class:`TraceCorruptionError` naming the first bad
        value's row (scenario position), absolute slot and seed."""
        row, column = (int(i) for i in np.argwhere(bad)[0])
        seeds = self.meta.get("seeds")
        seed = None if seeds is None else seeds[row]
        slot = int(self.meta.get("window_start", 0)) + column
        raise TraceCorruptionError(
            f"{message} (row {row}, slot {slot}, seed {seed})",
            scenario=row, slot=slot, seed=seed)

    @property
    def n_scenarios(self) -> int:
        return int(self.demand_ds.shape[0])

    @property
    def n_slots(self) -> int:
        return int(self.demand_ds.shape[1])

    def coarse_prices(self, fine_slots_per_coarse: int) -> np.ndarray:
        """``(B, K)`` long-term prices: per-coarse-slot forward means.

        Row ``b`` equals ``TraceSet.coarse_prices`` of scenario ``b``
        bit for bit (the reduction runs over the same contiguous ``T``
        elements per coarse slot).
        """
        t = int(fine_slots_per_coarse)
        if t < 1:
            raise ConfigurationError(f"T must be >= 1, got {t}")
        if self.n_slots % t != 0:
            raise HorizonMismatchError(
                f"{self.n_slots} slots do not divide into coarse slots "
                f"of T={t}")
        return self.price_lt_hourly.reshape(
            self.n_scenarios, -1, t).mean(axis=2)

    @classmethod
    def from_tracesets(cls, tracesets: "list[TraceSet]",
                       meta: dict | None = None) -> "TraceBlock":
        """Stack ``B`` equal-length :class:`TraceSet` windows.

        Inverse of :meth:`scenario` for the series arrays: row ``b`` of
        each stacked series is ``tracesets[b]``'s series, bit for bit.
        Per-scenario seeds found in the sets' meta are collected under
        ``meta["seeds"]`` so :meth:`scenario` can hand them back.
        """
        if not tracesets:
            raise TraceError("from_tracesets needs >= 1 trace set")
        lengths = {ts.n_slots for ts in tracesets}
        if len(lengths) != 1:
            raise HorizonMismatchError(
                f"trace sets have mismatched lengths: {sorted(lengths)}")
        meta = dict(meta) if meta is not None else {}
        seeds = [ts.meta.get("seed") for ts in tracesets]
        if any(seed is not None for seed in seeds):
            meta.setdefault("seeds", seeds)
        return cls(
            demand_ds=np.stack([ts.demand_ds for ts in tracesets]),
            demand_dt=np.stack([ts.demand_dt for ts in tracesets]),
            renewable=np.stack([ts.renewable for ts in tracesets]),
            price_rt=np.stack([ts.price_rt for ts in tracesets]),
            price_lt_hourly=np.stack(
                [ts.price_lt_hourly for ts in tracesets]),
            meta=meta,
        )

    def scenario(self, index: int) -> TraceSet:
        """Scenario ``index``'s window as a plain :class:`TraceSet`."""
        meta = dict(self.meta)
        seeds = meta.pop("seeds", None)
        if seeds is not None:
            meta["seed"] = seeds[index]
        clip_counts = meta.get("peak_clip_slots")
        if clip_counts is not None:
            meta["peak_clip_slots"] = int(np.asarray(clip_counts)[index])
        return TraceSet(
            demand_ds=self.demand_ds[index],
            demand_dt=self.demand_dt[index],
            renewable=self.renewable[index],
            price_rt=self.price_rt[index],
            price_lt_hourly=self.price_lt_hourly[index],
            meta=meta,
        )
