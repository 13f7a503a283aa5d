"""Streamed observation layer: noise and sensor-fault models.

The paper's robustness experiment (Fig. 9) feeds controllers *observed*
traces while the physical system evolves on the truth.  This module is
the one implementation of that separation: the streamed fleet engine
perturbs observations window by window, and the scalar
:class:`~repro.sim.engine.Simulator` takes the whole observed horizon
from :meth:`ObservationSpec.observed_traces` (its ``observed=``
argument).

An :class:`ObservationSpec` describes one scenario's observation model
(which perturbation, which seed, the market price cap).  Opening it
yields a :class:`ScenarioObserver`: a *chunked noise cursor* holding one
dedicated RNG substream per trace series (``observe:<series>`` under
the scenario's observation seed, via :func:`repro.rng.make_rng`) plus
per-series carry state, so perturbing the horizon window by window is
**bit-identical for every chunk size** — the same draw discipline the
trace streams follow (:mod:`repro.fleet.stream`).  The in-memory
reference is :meth:`ObservationSpec.observed_traces`, which applies the
same observer over the full horizon as a single chunk; equivalence
tests pin streamed == reference across chunkings.  A streamed batch
perturbs through :class:`BatchObserver`, which runs one such observer
per noise lane for every model.

Models
------

``uniform``
    The paper's ±``rel_error`` multiplicative error
    (:func:`uniform_perturb`).
``dropout``
    Each slot's reading is lost independently with probability
    ``rate``; the controller *holds the last good observation* (the
    sensor's first sample always latches, so leading dropouts report
    the power-on value) instead of crashing — graceful degradation.
``stuck``
    With probability ``rate`` per decision slot the sensor freezes at
    its previously reported value for ``duration`` slots.
``bias_drift``
    A Gaussian random walk on the relative calibration bias:
    ``observed = true · (1 + walk)``, floored at zero.
``delay``
    Readings arrive ``slots`` fine slots late (power-on latch before
    the first reading lands).

Every model keeps observed values finite and non-negative; observed
prices are additionally clipped at the market cap, as a second step
after the model's own floor at zero.  The streamed engine still scans
observed chunks for NaN/Inf — corruption
(e.g. injected via the ``observe`` fault site) raises
:class:`~repro.exceptions.ObservationCorruptionError` naming the view
and series, and quarantines through the fleet runner like any trace
corruption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.rng import make_rng, substream_rngs_batch
from repro.traces.base import TraceSet

#: Observed series, in the order one scenario's substreams are minted.
#: ``price_lt`` perturbs the *fine* ``price_lt_hourly`` series; the
#: engine derives observed coarse prices from it with the same
#: reshape-mean the true path uses.
OBSERVE_SERIES = ("demand_ds", "demand_dt", "renewable", "price_rt",
                  "price_lt")

#: Series that get the market-cap clip as a second step.
_PRICE_SERIES = ("price_rt", "price_lt")


def _is_count(value, low: int) -> bool:
    """Whether ``value`` is a whole number ``>= low``.  NaN, infinities
    and non-numbers are not (``int()`` would raise on them)."""
    try:
        return math.isfinite(value) and value >= low \
            and int(value) == value
    except TypeError:
        return False


class ObservationModel:
    """One perturbation discipline applied independently per series.

    Subclasses are frozen parameter dataclasses; all mutable cursor
    state lives in the per-series ``state`` dict threaded through
    :meth:`perturb_chunk`, so one model instance can back any number
    of concurrently open observers.
    """

    #: Registry key; also the ``model`` field of observation metadata.
    kind = ""

    def init_state(self) -> dict | None:
        """Fresh carry state for one series at horizon start."""
        return None

    def perturb_chunk(self, true: np.ndarray, rng: np.random.Generator,
                      state: dict | None) -> np.ndarray:
        """The observed window for one series' true window.

        Must consume ``rng`` at a per-slot rate independent of the
        chunking and fold carry sequentially through ``state``, so the
        concatenation of sequential windows is bit-identical for every
        chunk size.
        """
        raise NotImplementedError

    def params(self) -> dict:
        """The model's parameters (JSON-serializable)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def uniform_perturb(series: np.ndarray, rel_error: float,
                    rng: np.random.Generator) -> np.ndarray:
    """One series under the paper's multiplicative uniform error model.

    Each observed value is ``true · U`` with
    ``U ~ Uniform(1 − rel_error, 1 + rel_error)`` drawn independently
    per slot, floored at zero.
    """
    factors = rng.uniform(1.0 - rel_error, 1.0 + rel_error,
                          size=series.size)
    return np.clip(series * factors, 0.0, None)


@dataclass(frozen=True)
class UniformNoise(ObservationModel):
    """The paper's uniform ±``rel_error`` multiplicative error."""

    rel_error: float

    kind = "uniform"

    def __post_init__(self) -> None:
        if not 0 <= self.rel_error < 1:
            raise ConfigurationError(
                f"relative error must be in [0, 1), got {self.rel_error}")

    def perturb_chunk(self, true: np.ndarray, rng: np.random.Generator,
                      state: dict | None) -> np.ndarray:
        return uniform_perturb(true, self.rel_error, rng)


@dataclass(frozen=True)
class SensorDropout(ObservationModel):
    """Independent per-slot reading loss with last-good hold.

    A dropped slot reports the most recent good reading; the sensor's
    first sample always latches (leading dropouts report the power-on
    value ``true[0]``), which keeps the fallback chunk-invariant.
    """

    rate: float

    kind = "dropout"

    def __post_init__(self) -> None:
        if not 0 <= self.rate < 1:
            raise ConfigurationError(
                f"dropout rate must be in [0, 1), got {self.rate}")

    def init_state(self) -> dict:
        return {"last": None}

    def perturb_chunk(self, true: np.ndarray, rng: np.random.Generator,
                      state: dict | None) -> np.ndarray:
        n = true.size
        lost = rng.random(n) < self.rate
        last = state["last"]
        if last is None:
            last = float(true[0])
        # Forward-fill the index of the latest good slot; slots before
        # any good reading fall back to the held value.
        index = np.where(lost, -1, np.arange(n))
        np.maximum.accumulate(index, out=index)
        observed = np.where(index >= 0, true[np.maximum(index, 0)], last)
        state["last"] = float(observed[-1])
        return observed


@dataclass(frozen=True)
class StuckSensor(ObservationModel):
    """Sensor freezes at its previous reported value for a while.

    Each free slot sticks independently with probability ``rate``; a
    stick repeats the previously *reported* value (power-on latch:
    the first sample, if the sensor sticks immediately) for
    ``duration`` slots including the triggering one.  One uniform
    draw is consumed per slot regardless of the stick state, so the
    stream splits identically across chunk boundaries.
    """

    rate: float
    duration: int

    kind = "stuck"

    def __post_init__(self) -> None:
        if not 0 <= self.rate < 1:
            raise ConfigurationError(
                f"stick rate must be in [0, 1), got {self.rate}")
        if not _is_count(self.duration, 1):
            raise ConfigurationError(
                f"stick duration must be an integer >= 1, "
                f"got {self.duration}")

    def init_state(self) -> dict:
        return {"left": 0, "value": 0.0, "prev": None}

    def perturb_chunk(self, true: np.ndarray, rng: np.random.Generator,
                      state: dict | None) -> np.ndarray:
        draws = rng.random(true.size)
        observed = np.empty(true.size)
        left = state["left"]
        value = state["value"]
        prev = state["prev"]
        duration = int(self.duration)
        for i in range(true.size):
            if left > 0:
                observed[i] = value
                left -= 1
            elif draws[i] < self.rate:
                value = float(true[i]) if prev is None else prev
                observed[i] = value
                left = duration - 1
            else:
                observed[i] = true[i]
            prev = float(observed[i])
        state["left"] = left
        state["value"] = value
        state["prev"] = prev
        return observed


@dataclass(frozen=True)
class BiasDrift(ObservationModel):
    """Gaussian random walk on the relative calibration bias.

    ``observed = true · (1 + walk)`` floored at zero, where ``walk``
    accumulates i.i.d. ``Normal(0, sigma)`` steps.  The walk is folded
    left-to-right from the carried bias with ``np.add.accumulate`` —
    float addition is not associative, so a ``carry + cumsum`` form
    would *not* be bit-identical across chunkings.
    """

    sigma: float

    kind = "bias_drift"

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < math.inf:
            raise ConfigurationError(
                f"drift sigma must be finite and >= 0, got {self.sigma}")

    def init_state(self) -> dict:
        return {"bias": 0.0}

    def perturb_chunk(self, true: np.ndarray, rng: np.random.Generator,
                      state: dict | None) -> np.ndarray:
        steps = rng.normal(0.0, self.sigma, size=true.size)
        walk = np.add.accumulate(
            np.concatenate(([state["bias"]], steps)))[1:]
        state["bias"] = float(walk[-1])
        return np.clip(true * (1.0 + walk), 0.0, None)


@dataclass(frozen=True)
class DelayedReport(ObservationModel):
    """Readings arrive ``slots`` fine slots late.

    ``observed[t] = true[t - slots]``; before the first reading lands
    the sensor reports its power-on latch ``true[0]``.  Pure ring
    buffer — consumes no randomness.
    """

    slots: int

    kind = "delay"

    def __post_init__(self) -> None:
        if not _is_count(self.slots, 0):
            raise ConfigurationError(
                f"reporting delay must be an integer >= 0, "
                f"got {self.slots}")

    def init_state(self) -> dict:
        return {"buffer": None}

    def perturb_chunk(self, true: np.ndarray, rng: np.random.Generator,
                      state: dict | None) -> np.ndarray:
        delay = int(self.slots)
        if delay == 0:
            return true
        buffer = state["buffer"]
        if buffer is None:
            buffer = np.full(delay, float(true[0]))
        extended = np.concatenate([buffer, true])
        state["buffer"] = extended[true.size:true.size + delay]
        return extended[:true.size]


#: Registry of observation-model kinds (spec ``observation.kind``).
OBSERVATION_KINDS: dict[str, type] = {
    UniformNoise.kind: UniformNoise,
    SensorDropout.kind: SensorDropout,
    StuckSensor.kind: StuckSensor,
    BiasDrift.kind: BiasDrift,
    DelayedReport.kind: DelayedReport,
}


@dataclass(frozen=True)
class ObservationSpec:
    """One scenario's observation model, seed and price cap.

    Immutable description; :meth:`open` mints a fresh chunked
    observer, so one spec can be replayed any number of times with
    identical output.
    """

    model: ObservationModel
    seed: int
    price_cap: float | None = None

    @property
    def rel_error(self) -> float | None:
        """The uniform model's relative error (``None`` otherwise)."""
        value = getattr(self.model, "rel_error", None)
        return None if value is None else float(value)

    def describe(self) -> dict:
        """Observation metadata for fleet records and trace meta."""
        out = {"model": self.model.kind, "seed": int(self.seed)}
        out.update(self.model.params())
        return out

    def open(self) -> "ScenarioObserver":
        """A fresh observer with carry state at horizon start."""
        return ScenarioObserver(self)

    def observed_traces(self, traces: TraceSet) -> TraceSet:
        """The in-memory reference: the full horizon as one chunk.

        By the chunk-size invariance this equals the streamed
        observer's concatenated windows for *any* chunking — it is
        what the equivalence harness feeds ``Simulator(observed=...)``
        to pin the streamed path against.
        """
        observer = self.open()
        meta = dict(traces.meta)
        meta["observation"] = self.describe()
        if self.rel_error is not None:
            meta["observation_rel_error"] = self.rel_error
        return traces.replace(
            demand_ds=observer.observe_series("demand_ds",
                                              traces.demand_ds),
            demand_dt=observer.observe_series("demand_dt",
                                              traces.demand_dt),
            renewable=observer.observe_series("renewable",
                                              traces.renewable),
            price_rt=observer.observe_series("price_rt", traces.price_rt),
            price_lt_hourly=observer.observe_series(
                "price_lt", traces.price_lt_hourly),
            meta=meta,
        )


def observation_from_mapping(mapping: Mapping[str, object],
                             default_seed: int,
                             price_cap: float | None = None
                             ) -> ObservationSpec:
    """Build an :class:`ObservationSpec` from a serialized mapping.

    ``mapping`` is the ``ScenarioSpec.observation`` axis value:
    ``{"kind": <registry key>, <model params>...}`` plus an optional
    ``"seed"`` overriding ``default_seed`` (the scenario seed, so seed
    replicas draw independent noise by default).
    """
    data = dict(mapping)
    kind = data.pop("kind", None)
    if kind not in OBSERVATION_KINDS:
        raise ConfigurationError(
            f"unknown observation kind {kind!r}; expected one of "
            f"{sorted(OBSERVATION_KINDS)}")
    seed = data.pop("seed", None)
    seed = int(default_seed if seed is None else seed)
    cls = OBSERVATION_KINDS[kind]
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown {kind!r} observation parameters {unknown}; "
            f"expected {sorted(allowed)}")
    missing = sorted(allowed - set(data))
    if missing:
        raise ConfigurationError(
            f"observation kind {kind!r} missing parameters {missing}")
    return ObservationSpec(model=cls(**data), seed=seed,
                           price_cap=price_cap)


class ScenarioObserver:
    """Chunked noise cursor for one scenario.

    Holds one dedicated generator per observed series
    (``observe:<series>`` substreams of the observation seed) plus the
    model's per-series carry state; windows must be fed strictly in
    order, like every stream cursor.
    """

    def __init__(self, spec: ObservationSpec,
                 rngs: Mapping[str, np.random.Generator] | None = None):
        self.spec = spec
        # ``rngs`` lets BatchObserver seed a whole batch's substreams
        # in one vectorized pass; the streams are bit-identical to the
        # per-call ``make_rng`` default.
        self._rngs = (dict(rngs) if rngs is not None else
                      {name: make_rng(spec.seed, f"observe:{name}")
                       for name in OBSERVE_SERIES})
        self._states = {name: spec.model.init_state()
                        for name in OBSERVE_SERIES}

    def observe_series(self, name: str, true: np.ndarray) -> np.ndarray:
        """The observed window for one series' next true window."""
        observed = self.spec.model.perturb_chunk(
            true, self._rngs[name], self._states[name])
        if name in _PRICE_SERIES and self.spec.price_cap is not None:
            observed = np.clip(observed, 0.0, self.spec.price_cap)
        return observed


class BatchObserver:
    """Observation over one streamed batch: one noise lane per twin set.

    *Observation twins* are rows on one trace lane (``lanes``: each
    row's lane in the batch trace source, its ``rows``; ``None`` when
    every row has its own) with equal :class:`ObservationSpec`\\ s —
    model, seed and price cap compare by value.  Twins perturb
    identical true rows with identical substreams, so their observed
    windows are bit-identical.  The observer therefore keeps one *noise
    lane* per distinct (trace lane, spec): it mints that lane's
    substreams once, perturbs one representative row, and gathers the
    result back to every twin.  A robustness pass over a ``V`` sweep
    thus draws noise once per seed, not once per ``V`` value.  Each
    noise lane perturbs through its own :class:`ScenarioObserver`, the
    one path every model takes, so a lane's windows are the per-row
    reference's by construction.  The gathered rows are fresh,
    writable copies, so poisoning one row (the ``observe`` fault site)
    never reaches its twins.

    Rows without an observation model pass the truth through; when no
    row has one, :meth:`observe_matrix` returns the true block itself
    (alias: no copy, no draws), so a batch with observation disabled
    everywhere is bit-identical to — and as cheap as — the
    pre-observation engine.
    """

    def __init__(self, observations: Sequence[ObservationSpec | None],
                 lanes: Sequence[int] | None = None):
        keys: dict[tuple, int] = {}
        specs: list[ObservationSpec] = []  # one per noise lane
        members: list[list[int]] = []      # each noise lane's rows
        for row, spec in enumerate(observations):
            if spec is None:
                continue
            lane = row if lanes is None else int(lanes[row])
            index = keys.setdefault((lane, spec), len(specs))
            if index == len(specs):
                specs.append(spec)
                members.append([])
            members[index].append(row)
        # One vectorized seeding pass over every (noise lane, series)
        # substream instead of per-generator hashing.
        batched = substream_rngs_batch(
            [spec.seed for spec in specs],
            [f"observe:{name}" for name in OBSERVE_SERIES])
        self._observers = [
            (rows[0], rows, ScenarioObserver(
                spec, rngs={name: batched[f"observe:{name}"][index]
                            for name in OBSERVE_SERIES}))
            for index, (spec, rows) in enumerate(zip(specs, members))]

    def observe_matrix(self, name: str, true: np.ndarray) -> np.ndarray:
        """Observed ``(B, n)`` block for one series' true block.

        Returns ``true`` itself (alias) when no row has a model.
        """
        if not self._observers:
            return true
        observed = true.copy()
        for first, rows, observer in self._observers:
            observed[rows] = observer.observe_series(name, true[first])
        return observed
