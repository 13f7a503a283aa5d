"""Streaming trace sources: seed-deterministic chunked generation.

Every engine before this subsystem preloaded full horizons, so fleet
memory grew as ``O(B · horizon)``.  A :class:`TraceStream` instead
materializes :class:`~repro.traces.base.TraceSet` *windows* on demand:
the streaming batch engine (:mod:`repro.fleet.engine`) consumes one
chunk of columns at a time and peak memory scales with the chunk size.

The single-scenario sources:

* :class:`StreamingPaperTraces` — the paper's synthetic trace family
  regenerated chunk by chunk.  Each stochastic sub-process (demand
  noise, batch-job counts, batch-job sizes, cloud regimes, solar
  jitter, solar noise, price noise, price spikes, the forward curve)
  draws from its *own* named substream (:mod:`repro.rng`) and threads
  explicit carry state
  (:class:`~repro.traces.demand.DemandChunkState` and friends) across
  chunks, so the concatenation of sequential windows is **bit-identical
  for every chunk size** — including one window covering the whole
  horizon.  That invariance is what lets ``tests/equivalence/`` compare
  the streamed engine against the scalar engine on the materialized
  horizon exactly.

  Note the draw *interleaving* differs from
  :func:`~repro.traces.library.make_paper_traces` (which shares one
  generator per component), so the ``"stream"`` family is its own
  deterministic trace universe: same statistics, different realization
  per seed.  The per-slot references for this discipline are the
  ``*_stream_chunk`` methods in :mod:`repro.traces` (one batched draw
  per substream per window, every transcendental via NumPy), designed
  so the vectorized kernels below reproduce them bit for bit.

* :class:`ArrayTraceStream` — wraps an already-materialized
  :class:`TraceSet` so in-memory recipes flow through the same cursor
  protocol (no memory savings; used for oracle controllers and the
  ``"paper"`` recipe).

The streaming fleet engine reads all ``B`` scenarios of a shard
through **one** batch cursor whose ``read`` emits a whole
:class:`~repro.traces.base.TraceBlock` of ``(B, chunk)`` columns:

* :class:`BatchTraceStream`, when every source is a
  :class:`StreamingPaperTraces` — one pass of the vectorized kernels
  (:class:`~repro.traces.demand.DemandTraceKernel`,
  :class:`~repro.traces.solar.SolarTraceKernel`,
  :class:`~repro.traces.prices.PriceTraceKernel`) per window instead
  of ``B × chunk`` Python loop iterations, bit-identical to ``B``
  independent :class:`StreamingPaperTraces` cursors (the scalar
  reference path the equivalence harness runs);
* :class:`ArrayBatchStream` for any other sources — each materialized
  once and stacked, every window a gather of resident rows,
  bit-identical to the sources' own cursors.

Both run one *lane* per distinct stream object: trace twins (scenarios
handed the same stream object, as the fleet runner does for equal
:meth:`~repro.fleet.spec.ScenarioSpec.trace_key`) are generated or
materialized once, and every read copies the lane's rows out to each
twin, so a twin's row can be modified without touching the others.

Windows are served strictly in order — the simulation consumes slots
sequentially, and sequential generation is what makes carry state
cheap.  ``open()`` returns a fresh cursor, so one stream description
can be replayed any number of times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Sequence

import numpy as np

from repro import rng as rng_mod
from repro.exceptions import ConfigurationError, TraceError
from repro.rng import RngFactory
from repro.traces.base import SERIES_FIELDS, TraceBlock, TraceSet
from repro.traces.demand import (
    DemandChunkState,
    DemandModel,
    DemandTraceKernel,
    GoogleClusterDemandGenerator,
)
from repro.traces.prices import (
    NyisoLikePriceGenerator,
    PriceChunkState,
    PriceModel,
    PriceTraceKernel,
)
from repro.traces.scaling import clip_demand_peaks
from repro.traces.solar import (
    MidcLikeSolarGenerator,
    SolarChunkState,
    SolarModel,
    SolarTraceKernel,
)

#: Substream names, in the order one scenario's generators are minted.
#: Shared by the scalar cursor and the batch cursor so both consume
#: identically-seeded streams per scenario.
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

#: Default window size (fine slots) used by ``materialize``.
DEFAULT_MATERIALIZE_CHUNK = 256


class TraceCursor:
    """Sequential reader over one stream (abstract).

    ``read(n)`` returns the next ``n`` slots as a :class:`TraceSet`
    window; a cursor never rewinds.
    """

    def read(self, n_slots: int) -> TraceSet:
        raise NotImplementedError

    @property
    def position(self) -> int:
        raise NotImplementedError


class TraceStream:
    """A replayable chunked trace source (abstract).

    Concrete streams know their horizon length and mint independent
    sequential cursors via :meth:`open`.
    """

    @property
    def n_slots(self) -> int:
        raise NotImplementedError

    def open(self) -> TraceCursor:
        raise NotImplementedError

    def windows(self, chunk_slots: int) -> Iterator[TraceSet]:
        """Iterate the whole horizon in windows of ``chunk_slots``."""
        if chunk_slots < 1:
            raise ConfigurationError(f"chunk must be >= 1 slot, got {chunk_slots}")
        cursor = self.open()
        position = 0
        while position < self.n_slots:
            take = min(chunk_slots, self.n_slots - position)
            yield cursor.read(take)
            position += take

    def materialize(self,
                    chunk_slots: int = DEFAULT_MATERIALIZE_CHUNK
                    ) -> TraceSet:
        """The full horizon as one :class:`TraceSet`.

        Defined as the concatenation of sequential windows, which by
        the chunk-size invariance equals the output for *any* chunking
        — this is the whole-horizon reference the equivalence harness
        runs through the scalar :class:`~repro.sim.engine.Simulator`.

        Window metadata that counts per-window events aggregates over
        the horizon: ``peak_clip_slots`` (written by the ``Pgrid``
        peak clip) is the *sum* of the windows' clip counts, matching
        what one full-horizon clip would have recorded.
        """
        windows = list(self.windows(chunk_slots))
        meta = dict(windows[0].meta)
        clip_counts = [w.meta["peak_clip_slots"] for w in windows
                       if "peak_clip_slots" in w.meta]
        if clip_counts:
            meta["peak_clip_slots"] = int(sum(clip_counts))
        return TraceSet(
            demand_ds=np.concatenate([w.demand_ds for w in windows]),
            demand_dt=np.concatenate([w.demand_dt for w in windows]),
            renewable=np.concatenate([w.renewable for w in windows]),
            price_rt=np.concatenate([w.price_rt for w in windows]),
            price_lt_hourly=np.concatenate(
                [w.price_lt_hourly for w in windows]),
            meta=meta,
        )


class _ArrayCursor(TraceCursor):
    """Cursor over a resident :class:`TraceSet`.

    Every window of one cursor shares the source's metadata through a
    single read-only view — window meta is identical across windows,
    and profiling showed the per-window ``dict`` copies dominating
    cursor overhead at small chunk sizes.
    """

    def __init__(self, traces: TraceSet):
        self._traces = traces
        self._meta = MappingProxyType(traces.meta)
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    def read(self, n_slots: int) -> TraceSet:
        start = self._position
        stop = start + n_slots
        if stop > self._traces.n_slots:
            raise TraceError(
                f"read past end of stream: [{start}, {stop}) of "
                f"{self._traces.n_slots} slots")
        self._position = stop
        traces = self._traces
        return TraceSet(
            demand_ds=traces.demand_ds[start:stop],
            demand_dt=traces.demand_dt[start:stop],
            renewable=traces.renewable[start:stop],
            price_rt=traces.price_rt[start:stop],
            price_lt_hourly=traces.price_lt_hourly[start:stop],
            meta=self._meta,
        )


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
        records; materialized windows carry the seed through their
        meta so array-backed replays keep the provenance column.
        """
        seed = self._traces.meta.get("seed")
        return None if seed is None else int(seed)

    def open(self) -> TraceCursor:
        return _ArrayCursor(self._traces)

    def materialize(self, chunk_slots: int = DEFAULT_MATERIALIZE_CHUNK
                    ) -> TraceSet:
        return self._traces


@dataclass
class _PaperStreamState:
    """All carry state of one :class:`StreamingPaperTraces` cursor."""

    demand: DemandChunkState = field(default_factory=DemandChunkState)
    solar: SolarChunkState = field(default_factory=SolarChunkState)
    price: PriceChunkState = field(default_factory=PriceChunkState)


def _substream_rngs(seed: int) -> dict[str, np.random.Generator]:
    """One fresh generator per named substream for one scenario."""
    factory = RngFactory(seed)
    return {name: factory.stream(name) for name in _SUBSTREAMS}


class _PaperStreamCursor(TraceCursor):
    """Sequential scalar-reference cursor.

    Holds one dedicated :class:`numpy.random.Generator` per stochastic
    sub-process (created once, advanced strictly per slot) plus the
    AR(1)/Markov carry state, so successive ``read`` calls continue
    every process exactly where the previous window left it.  This is
    the per-slot reference path: :class:`BatchTraceStream` must match
    it bit for bit, and ``materialize`` — hence the scalar reference
    the equivalence harness compares against — runs through it.
    """

    def __init__(self, stream: "StreamingPaperTraces"):
        self._stream = stream
        self._rngs = _substream_rngs(stream.seed)
        self._state = _PaperStreamState()
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    def read(self, n_slots: int) -> TraceSet:
        stream = self._stream
        start = self._position
        if start + n_slots > stream.n_slots:
            raise TraceError(
                f"read past end of stream: [{start}, {start + n_slots}) "
                f"of {stream.n_slots} slots")
        state = self._state
        rngs = self._rngs
        demand_gen = stream.demand_generator
        demand_ds = demand_gen.delay_sensitive_stream_chunk(
            start, n_slots, rngs["stream:demand_ds"], state.demand)
        demand_dt = demand_gen.delay_tolerant_stream_chunk(
            start, n_slots, rngs["stream:demand_dt"],
            rngs["stream:demand_dt:sizes"])
        renewable = stream.solar_generator.generate_chunk(
            start, n_slots, rngs["stream:solar:clouds"],
            rngs["stream:solar:jitter"], rngs["stream:solar:noise"],
            state.solar)
        price_gen = stream.price_generator
        price_rt = price_gen.real_time_stream_chunk(
            start, n_slots, rngs["stream:price_rt"],
            rngs["stream:price_rt:spikes"], state.price)
        price_lt = price_gen.forward_curve_chunk(
            start, n_slots, rngs["stream:price_lt"])
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


class StreamingPaperTraces(TraceStream):
    """The paper's trace family, generated chunk by chunk.

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
        self.demand_generator = GoogleClusterDemandGenerator(
            self.demand_model)
        self.solar_generator = MidcLikeSolarGenerator(self.solar_model)
        self.price_generator = NyisoLikePriceGenerator(self.price_model)

    @property
    def n_slots(self) -> int:
        return self._n_slots

    def open(self) -> TraceCursor:
        return _PaperStreamCursor(self)


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

    Structured exactly like one :class:`_PaperStreamCursor` per
    distinct stream object (a *lane*) — the same named substreams, the
    same carry state — but the state lives in ``(D,)`` arrays and every
    ``read`` is one vectorized kernel pass per component instead of
    ``D × chunk`` Python iterations.  Trace twins share a lane; each
    read gathers the ``D`` lane rows back to the ``B`` scenarios.
    """

    def __init__(self, stream: "BatchTraceStream"):
        self._stream = stream
        batch = len(stream.lanes)
        # One vectorized seed-hashing pass for all D x 9 substream
        # generators — streams bit-identical to the per-scenario
        # cursors' (see repro.rng.substream_rngs_batch).
        self._rngs = rng_mod.substream_rngs_batch(
            [source.seed for source in stream.lanes], _SUBSTREAMS)
        self._demand_level = np.zeros(batch)
        self._cloud_state = np.full(batch, -1, dtype=np.int64)
        self._solar_level = np.zeros(batch)
        self._price_level = np.zeros(batch)
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

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
    one kernel call per component per window.  Output is bit-identical
    to reading the ``B`` per-scenario cursors independently (the scalar
    reference path), which is what the streamed fleet engine's
    equivalence gate relies on.

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
    def n_scenarios(self) -> int:
        return len(self.streams)

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
    rows out to each trace twin.  Windows equal each source's own
    cursor windows bit for bit, because ``materialize`` is by contract
    the concatenation of those windows.
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
