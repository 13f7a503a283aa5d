"""Trace sources for the streamed fleet engine.

A :class:`TraceStream` describes one scenario's trace horizon; the
streaming batch engine (:mod:`repro.fleet.engine`) reads all ``B``
scenarios of a shard through **one** batch cursor whose ``read`` emits
the next window as a :class:`~repro.traces.base.TraceBlock` of
``(B, chunk)`` columns.  Each trace family has one generator:

* :class:`StreamingPaperTraces` — the ``stream`` family, generated
  only by the vectorized kernels
  (:class:`~repro.traces.demand.DemandTraceKernel`,
  :class:`~repro.traces.solar.SolarTraceKernel`,
  :class:`~repro.traces.prices.PriceTraceKernel`).  Each stochastic
  sub-process (demand noise, batch-job counts, batch-job sizes, cloud
  regimes, solar jitter, solar noise, price noise, price spikes, the
  forward curve) draws from its *own* named substream of the seed
  (:mod:`repro.rng`) and carries its AR(1)/Markov state across
  windows, so sequential windows concatenate to the same horizon for
  every chunk size.  Its draw interleaving differs from
  :func:`~repro.traces.library.make_paper_traces` (which shares one
  generator per component), so the ``"stream"`` family is its own
  deterministic trace universe: same statistics, different
  realization per seed.
* :class:`ArrayTraceStream` — an already-materialized
  :class:`~repro.traces.base.TraceSet` (the ``"paper"`` family of
  :func:`~repro.traces.library.make_paper_traces`, or a user's own
  traces).

The two batch cursors are the only windowed reads:

* :class:`BatchTraceStream`, when every source is a
  :class:`StreamingPaperTraces` — one kernel pass per component per
  window for the whole batch, holding ``O(B · chunk)`` trace memory;
* :class:`ArrayBatchStream` for any other sources — each materialized
  once and stacked, every window a gather of resident rows.

Both run one *lane* per distinct stream object: trace twins (scenarios
handed the same stream object, as the fleet runner does for equal
:meth:`~repro.fleet.spec.ScenarioSpec.trace_key`) are generated or
materialized once, and every read copies the lane's rows out to each
twin, so a twin's row can be modified without touching the others.

Windows are served strictly in order — the simulation consumes slots
sequentially, and sequential generation is what makes carry state
cheap.  ``open()`` returns a fresh cursor, so one batch stream can be
replayed any number of times.  ``materialize()`` is the whole horizon
of one source: for a :class:`StreamingPaperTraces` it is one
full-horizon, one-lane :class:`BatchTraceStream` read.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import rng as rng_mod
from repro.exceptions import (
    ConfigurationError,
    TraceCorruptionError,
    TraceError,
)
from repro.traces.base import SERIES_FIELDS, TraceBlock, TraceSet
from repro.traces.demand import DemandModel, DemandTraceKernel
from repro.traces.prices import PriceModel, PriceTraceKernel
from repro.traces.solar import SolarModel, SolarTraceKernel

#: Substream names, in the order one scenario's generators are minted.
_SUBSTREAMS = (
    "stream:demand_ds",
    "stream:demand_dt",
    "stream:demand_dt:sizes",
    "stream:solar:clouds",
    "stream:solar:jitter",
    "stream:solar:noise",
    "stream:price_rt",
    "stream:price_rt:spikes",
    "stream:price_lt",
)


class TraceStream:
    """One scenario's trace horizon (abstract).

    Concrete streams know their horizon length and can materialize it
    whole; the batch cursors serve windows.
    """

    @property
    def n_slots(self) -> int:
        raise NotImplementedError

    def materialize(self) -> TraceSet:
        """The full horizon as one :class:`TraceSet`."""
        raise NotImplementedError


class ArrayTraceStream(TraceStream):
    """A resident :class:`TraceSet` behind the stream protocol."""

    def __init__(self, traces: TraceSet):
        self._traces = traces

    @property
    def n_slots(self) -> int:
        return self._traces.n_slots

    @property
    def seed(self) -> int | None:
        """The generating seed, when the trace meta recorded one.

        The streamed engine stamps ``run.stream.seed`` into scenario
        records; materialized traces carry the seed through their meta
        so array-backed runs keep the provenance column.
        """
        seed = self._traces.meta.get("seed")
        return None if seed is None else int(seed)

    def materialize(self) -> TraceSet:
        return self._traces


class StreamingPaperTraces(TraceStream):
    """The ``stream`` trace family's description of one scenario.

    Parameters
    ----------
    n_slots:
        Horizon length in fine slots.
    seed:
        Root seed; every sub-process derives an independent substream
        from it (see module docstring for the seed discipline).
    demand_model / solar_model / price_model:
        Component model overrides (defaults mirror
        :func:`~repro.traces.library.make_paper_traces`).
    clip_p_grid:
        When positive, apply the paper's ``Pgrid`` peak clipping to
        every window (the clip is per-slot, hence chunk-invariant).
        ``None`` disables clipping.
    """

    def __init__(self, n_slots: int, seed: int,
                 demand_model: DemandModel | None = None,
                 solar_model: SolarModel | None = None,
                 price_model: PriceModel | None = None,
                 clip_p_grid: float | None = None):
        if n_slots < 1:
            raise ConfigurationError(f"horizon must have >= 1 slot, got {n_slots}")
        self._n_slots = int(n_slots)
        self.seed = int(seed)
        self.demand_model = demand_model or DemandModel()
        self.solar_model = solar_model or SolarModel()
        self.price_model = price_model or PriceModel()
        self.clip_p_grid = clip_p_grid

    @property
    def n_slots(self) -> int:
        return self._n_slots

    def materialize(self) -> TraceSet:
        """The full horizon: one full-horizon, one-lane kernel read.

        A :class:`~repro.exceptions.TraceCorruptionError` from the read
        names row 0 of a one-row block, which is no caller's scenario
        position, so it is restated without one.
        """
        try:
            block = BatchTraceStream([self]).open().read(self.n_slots)
        except TraceCorruptionError as error:
            raise TraceCorruptionError(
                f"stream seed {self.seed}: {error}", slot=error.slot,
                seed=error.seed) from None
        return block.scenario(0)


def _trace_lanes(streams: Sequence[TraceStream]
                 ) -> tuple[tuple[TraceStream, ...], np.ndarray | None]:
    """The distinct stream objects, and each scenario's lane among them.

    Trace twins share one stream object and so one lane.  The lane
    index is ``None`` when every scenario has its own lane, so windows
    need no gather.
    """
    lanes: dict[int, int] = {}
    distinct: list[TraceStream] = []
    rows = []
    for source in streams:
        lane = lanes.setdefault(id(source), len(distinct))
        if lane == len(distinct):
            distinct.append(source)
        rows.append(lane)
    if len(distinct) == len(rows):
        return tuple(distinct), None
    return tuple(distinct), np.array(rows)


class _BatchPaperCursor:
    """One cursor serving all ``B`` scenarios of a batch stream.

    Holds the nine named substreams of every distinct stream object (a
    *lane*) and their AR(1)/Markov carry state in ``(D,)`` arrays;
    every ``read`` is one vectorized kernel pass per component.  Trace
    twins share a lane; each read gathers the ``D`` lane rows back to
    the ``B`` scenarios.
    """

    def __init__(self, stream: "BatchTraceStream"):
        self._stream = stream
        batch = len(stream.lanes)
        # One vectorized seed-hashing pass for all D x 9 substream
        # generators — streams bit-identical to ``make_rng`` per name
        # (see repro.rng.substream_rngs_batch).
        self._rngs = rng_mod.substream_rngs_batch(
            [source.seed for source in stream.lanes], _SUBSTREAMS)
        self._demand_level = np.zeros(batch)
        self._cloud_state = np.full(batch, -1, dtype=np.int64)
        self._solar_level = np.zeros(batch)
        self._price_level = np.zeros(batch)
        self._position = 0

    def read(self, n_slots: int) -> TraceBlock:
        stream = self._stream
        start = self._position
        if n_slots < 1:
            raise ConfigurationError(f"n_slots must be >= 1, got {n_slots}")
        if start + n_slots > stream.n_slots:
            raise TraceError(
                f"read past end of stream: [{start}, {start + n_slots}) "
                f"of {stream.n_slots} slots")
        rngs = self._rngs
        demand_ds, self._demand_level = \
            stream.demand_kernel.sensitive_block(
                start, n_slots, rngs["stream:demand_ds"],
                self._demand_level)
        demand_dt = stream.demand_kernel.tolerant_block(
            start, n_slots, rngs["stream:demand_dt"],
            rngs["stream:demand_dt:sizes"])
        renewable, self._cloud_state, self._solar_level = \
            stream.solar_kernel.block(
                start, n_slots, rngs["stream:solar:clouds"],
                rngs["stream:solar:jitter"], rngs["stream:solar:noise"],
                self._cloud_state, self._solar_level)
        price_rt, self._price_level = \
            stream.price_kernel.real_time_block(
                start, n_slots, rngs["stream:price_rt"],
                rngs["stream:price_rt:spikes"], self._price_level)
        price_lt = stream.price_kernel.forward_block(
            start, n_slots, rngs["stream:price_lt"])
        self._position = start + n_slots

        meta = {"seeds": stream.seeds, "source": "BatchTraceStream",
                "window_start": start}
        clip = stream.clip_p_grid
        if clip is not None:
            # Vectorized twin of clip_demand_peaks: same per-slot scale
            # (p_grid / total on over-cap slots, 1 elsewhere), applied
            # per scenario; rows without a cap never trigger (inf).
            total = demand_ds + demand_dt
            over = total > clip[:, None]
            scale = np.ones_like(total)
            np.divide(np.broadcast_to(clip[:, None], total.shape),
                      total, out=scale, where=over)
            demand_ds = demand_ds * scale
            demand_dt = demand_dt * scale
            meta["peak_clip_slots"] = over.sum(axis=1)
        rows = stream.rows
        if rows is not None:
            demand_ds, demand_dt, renewable, price_rt, price_lt = (
                series[rows] for series in (demand_ds, demand_dt,
                                            renewable, price_rt,
                                            price_lt))
            if clip is not None:
                meta["peak_clip_slots"] = meta["peak_clip_slots"][rows]
        return TraceBlock(
            demand_ds=demand_ds,
            demand_dt=demand_dt,
            renewable=renewable,
            price_rt=price_rt,
            price_lt_hourly=price_lt,
            meta=meta,
        )


class BatchTraceStream:
    """All scenarios of a fleet shard behind one vectorized cursor.

    Wraps ``B`` :class:`StreamingPaperTraces` descriptions and serves
    their windows as :class:`~repro.traces.base.TraceBlock` batches:
    one kernel call per component per window.  Row ``b`` of every
    window is scenario ``b``'s own stream, whatever the batch around it
    and however the horizon is chunked; the per-slot reference cursor
    it is tested against lives in ``tests/oracles/stream_traces.py``.

    The kernels run one lane per *distinct* stream object (``lanes``):
    scenarios handed the same object — trace twins — share its RNG
    minting, kernel set-up and generation, and each read copies the
    lane's rows out to every twin.

    Use :meth:`for_streams` to build one when a shard's trace sources
    allow it (every source must be a :class:`StreamingPaperTraces`);
    heterogeneous models and per-source ``clip_p_grid`` values are
    fine — parameters stack into per-lane vectors.
    """

    def __init__(self, streams: Sequence[StreamingPaperTraces]):
        if not streams:
            raise ConfigurationError("batch stream needs at least one scenario")
        for source in streams:
            if not isinstance(source, StreamingPaperTraces):
                raise TypeError(
                    f"BatchTraceStream requires StreamingPaperTraces "
                    f"sources, got {type(source).__name__}")
        self.streams = tuple(streams)
        self.seeds = tuple(source.seed for source in self.streams)
        self.lanes, self.rows = _trace_lanes(self.streams)
        self.demand_kernel = DemandTraceKernel(
            [source.demand_model for source in self.lanes])
        self.solar_kernel = SolarTraceKernel(
            [source.solar_model for source in self.lanes])
        self.price_kernel = PriceTraceKernel(
            [source.price_model for source in self.lanes])
        clips = [source.clip_p_grid for source in self.lanes]
        if any(clip is not None and clip > 0 for clip in clips):
            self.clip_p_grid = np.array(
                [clip if (clip is not None and clip > 0) else np.inf
                 for clip in clips])
        else:
            self.clip_p_grid = None

    @classmethod
    def for_streams(cls, streams: Sequence[TraceStream]
                    ) -> "BatchTraceStream | None":
        """A batch stream over ``streams``, or ``None`` if any source
        is not kernel-backed (the caller falls back to
        :class:`ArrayBatchStream`)."""
        if not streams or not all(
                isinstance(source, StreamingPaperTraces)
                for source in streams):
            return None
        return cls(streams)

    @property
    def n_slots(self) -> int:
        """Slots every scenario can serve (the shortest horizon)."""
        return min(source.n_slots for source in self.streams)

    def open(self) -> _BatchPaperCursor:
        return _BatchPaperCursor(self)


class _ArrayBatchCursor:
    """Sequential ``(B, chunk)`` windows gathered from resident lanes."""

    def __init__(self, stream: "ArrayBatchStream"):
        n_slots = stream.n_slots
        sets = [lane.materialize() for lane in stream.lanes]
        self._series = {
            name: np.stack([getattr(traces, name)[:n_slots]
                            for traces in sets])
            for name in SERIES_FIELDS}
        self._rows = stream.rows
        self._n_slots = n_slots
        self._position = 0

    def read(self, n_slots: int) -> TraceBlock:
        start = self._position
        stop = start + n_slots
        if n_slots < 1:
            raise ConfigurationError(f"n_slots must be >= 1, got {n_slots}")
        if stop > self._n_slots:
            raise TraceError(
                f"read past end of stream: [{start}, {stop}) of "
                f"{self._n_slots} slots")
        self._position = stop
        rows = self._rows
        return TraceBlock(
            **{name: (lanes[:, start:stop] if rows is None
                      else lanes[rows, start:stop])
               for name, lanes in self._series.items()},
            meta={"source": "ArrayBatchStream", "window_start": start})


class ArrayBatchStream:
    """Any trace sources behind one batch cursor over resident arrays.

    The source the streamed engine uses when
    :meth:`BatchTraceStream.for_streams` declines (a materialized
    :class:`ArrayTraceStream`, a mix of kinds, a custom stream).
    Opening a cursor materializes each distinct stream object once —
    free for an :class:`ArrayTraceStream`, which holds its
    :class:`TraceSet` — and stacks the lanes ``(D, n_slots)``; every
    ``read`` then gathers one ``(B, chunk)``
    :class:`~repro.traces.base.TraceBlock`, copying a shared lane's
    rows out to each trace twin.  Every window is a slice of each
    source's ``materialize()``, bit for bit.
    """

    def __init__(self, streams: Sequence[TraceStream]):
        if not streams:
            raise ConfigurationError("batch stream needs at least one scenario")
        self.streams = tuple(streams)
        self.lanes, self.rows = _trace_lanes(self.streams)

    @property
    def n_slots(self) -> int:
        """Slots every scenario can serve (the shortest horizon)."""
        return min(source.n_slots for source in self.streams)

    def open(self) -> _ArrayBatchCursor:
        return _ArrayBatchCursor(self)
