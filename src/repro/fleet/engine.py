"""Streaming batch engine: chunked traces, O(B) result state.

:class:`StreamingBatchSimulator` subclasses the in-memory
:class:`~repro.sim.batch.BatchSimulator` and reuses its per-slot
arithmetic verbatim — the only overrides load trace *chunks* into the
column arrays (advancing the base engine's ``_slot0`` / ``_coarse0``
window offsets) and replace the ``(B, horizon)`` recorder with the
O(B) :class:`StreamingAggregator`.  Peak memory is therefore
``O(B · chunk)`` for traces plus ``O(B)`` for results, instead of the
in-memory engine's ``O(B · horizon)`` for both.

A run returns one *metrics block*: a dict holding one length-``B``
column per :class:`ScenarioMetrics` field.  :class:`ScenarioMetrics`
is the record schema — its field order is the record key order and
its ``_OPTIONAL`` columns are left out of a record where they are
``None`` — and :meth:`ScenarioMetrics.rows` encodes a block into
record dicts.

Exactness contract: per-slot physics outputs are bit-identical to the
in-memory engine (same code runs), the aggregator accumulates every
sum slot by slot in slot order, and one fold (:func:`_fold`) turns the
aggregates and delay ledgers into the block.
:meth:`ScenarioMetrics.from_result` feeds an in-memory result's series
through the same aggregator and the same fold, passing in the result's
delay ledger, so streamed metrics equal in-memory metrics *exactly*,
not just within tolerance.  Enforced by
``tests/equivalence/test_fleet_stream.py``.

Chunks must cover whole coarse slots (``chunk_coarse`` many), because
long-term prices are per-coarse-slot averages and planning happens at
coarse boundaries.  Each loaded chunk keeps a ``T``-slot tail of its
predecessor so the planner's previous-window profile lookback stays
resident: planning consumes one
:class:`~repro.core.interfaces.BatchCoarseObservation` per boundary,
sliced straight out of the resident window by
``BatchSimulator._coarse_observations``, which raises
:class:`~repro.exceptions.HorizonMismatchError` if a chunk ever
arrives without the tail (a silent negative-index wrap would read the
wrong profile otherwise).

Every chunk arrives as one :class:`~repro.traces.base.TraceBlock` from
one batch cursor, picked from the input: a
:class:`~repro.fleet.stream.BatchTraceStream` when every stream is
kernel-backed (one vectorized kernel pass per window for the whole
batch), else an :class:`~repro.fleet.stream.ArrayBatchStream` (each
source materialized once — whole horizons resident, as an
:class:`~repro.fleet.stream.ArrayTraceStream`'s already are — and
every window a gather of resident rows).
Both serve trace twins — runs sharing one stream object — from one
lane, and both produce windows bit-identical to the runs' own cursors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from repro.config.system import SystemConfig
from repro.core.interfaces import Controller
from repro.exceptions import (
    ConfigurationError,
    HorizonMismatchError,
    ObservationCorruptionError,
    TraceCorruptionError,
)
from repro.fleet.observe import BatchObserver, ObservationSpec
from repro.fleet.stream import ArrayBatchStream, BatchTraceStream, TraceStream
from repro.sim.batch import BatchController, BatchSimulator, _RunState
from repro.sim.results import SimulationResult
from repro.sim.vecstate import DelayReplay
from repro.workload.queue import DelayStats

#: Per-slot series summed into scenario totals by the aggregator.
_SUMMED = ("cost_lt", "cost_rt", "cost_battery", "cost_waste",
           "served_ds", "served_dt", "unserved_ds", "renewable_used",
           "renewable_curtailed", "charge", "discharge", "waste")


@dataclass(frozen=True)
class StreamRunSpec:
    """One streamed simulation request.

    The duck-typed twin of :class:`~repro.sim.batch.RunSpec` for the
    streaming engine: traces come as a replayable
    :class:`~repro.fleet.stream.TraceStream` instead of resident
    arrays.  ``grid_capacity`` may still be a full per-slot array (it
    is sliced per chunk).  ``observation`` is an optional
    :class:`~repro.fleet.observe.ObservationSpec`: when set, the
    controller observes a derived noisy stream (perturbed chunk by
    chunk with dedicated substreams and carry state) while physics and
    billing stay on the truth; when ``None`` the controller observes
    the true streamed traces.
    """

    system: SystemConfig
    controller: Controller
    stream: TraceStream
    grid_capacity: object = None
    observation: ObservationSpec | None = None


class StreamingAggregator:
    """O(B) result state fed one slot of ``(B,)`` arrays at a time.

    Implements the recorder interface ``_step_physics`` writes to
    (``record(**values)``), accumulating totals and extrema instead of
    full series, and keeps one FIFO delay ledger per scenario, fed a
    chunk at a time by :meth:`flush_delays`.  Sums advance with
    elementwise ``+=`` in slot order; :func:`_fold` turns the
    aggregates into a metrics block.  The same aggregator fed an
    in-memory result's series (:meth:`ScenarioMetrics.from_result`)
    reproduces every sum bit for bit.
    """

    #: Initial column capacity of the buffered service block.
    _INITIAL_BLOCK = 64

    def __init__(self, batch: int):
        if batch < 1:
            raise ConfigurationError(f"need batch >= 1, got {batch}")
        self.batch = batch
        self._sums = {name: np.zeros(batch) for name in _SUMMED}
        self._peak_backlog = np.zeros(batch)
        self._final_backlog = np.zeros(batch)
        self._battery_min = np.full(batch, np.inf)
        self._battery_max = np.full(batch, -np.inf)
        self._replays = [DelayReplay() for _ in range(batch)]
        # Preallocated (B, cap) service buffer, grown geometrically —
        # the slot loop writes one column per slot instead of
        # allocating a per-slot copy (aggregator scratch stays O(B)
        # per slot, zero allocations at steady state).
        self._served_dt_block: np.ndarray | None = None
        self._buffered = 0

    def record(self, **values: np.ndarray) -> None:
        sums = self._sums
        for name in _SUMMED:
            sums[name] += values[name]
        backlog = values["backlog"]
        np.maximum(self._peak_backlog, backlog, out=self._peak_backlog)
        np.copyto(self._final_backlog, backlog)
        level = values["battery_level"]
        np.minimum(self._battery_min, level, out=self._battery_min)
        np.maximum(self._battery_max, level, out=self._battery_max)
        block = self._served_dt_block
        if block is None or self._buffered == block.shape[1]:
            block = self._grow_block()
        block[:, self._buffered] = values["served_dt"]
        self._buffered += 1

    def _grow_block(self) -> np.ndarray:
        """Double the buffered-service capacity, keeping buffered data."""
        old = self._served_dt_block
        capacity = (self._INITIAL_BLOCK if old is None
                    else 2 * old.shape[1])
        block = np.empty((self.batch, capacity))
        if old is not None and self._buffered:
            block[:, :self._buffered] = old[:, :self._buffered]
        self._served_dt_block = block
        return block

    def flush_delays(self, start_slot: int,
                     arrivals_dt: np.ndarray) -> None:
        """Replay the buffered chunk through the FIFO delay ledgers.

        ``arrivals_dt`` is the ``(B, chunk)`` block of *true*
        delay-tolerant arrivals matching the buffered service slots.
        """
        if not self._buffered:
            return
        block = self._served_dt_block
        shape = (self.batch, self._buffered)
        if arrivals_dt.shape != shape:
            raise ConfigurationError(
                f"arrivals shape {arrivals_dt.shape} does not match "
                f"buffered service {shape}")
        for index, replay in enumerate(self._replays):
            replay.extend(start_slot, block[index, :self._buffered],
                          arrivals_dt[index])
        self._buffered = 0


def _fold(aggregator: StreamingAggregator, delays: Sequence[DelayStats],
          *, controller_name: Sequence[str], n_slots: int,
          battery_ops: np.ndarray, lt_energy: np.ndarray,
          rt_energy: np.ndarray, seed: Sequence[int | None]
          ) -> dict[str, np.ndarray | list]:
    """Fold a run's aggregates into its metrics block.

    The one definition of every derived metric: each column is an
    elementwise array expression over the aggregator's ``(B,)`` sums,
    and ``delays`` holds one delay ledger per scenario.  Columns come
    in :class:`ScenarioMetrics` field order.
    """
    batch = aggregator.batch
    sums = aggregator._sums
    cost_lt, cost_rt = sums["cost_lt"], sums["cost_rt"]
    cost_battery, cost_waste = sums["cost_battery"], sums["cost_waste"]
    total = cost_lt + cost_rt + cost_battery + cost_waste
    served_ds, unserved_ds = sums["served_ds"], sums["unserved_ds"]
    demand_ds = served_ds + unserved_ds
    used, curtailed = sums["renewable_used"], sums["renewable_curtailed"]
    produced = used + curtailed
    lost = curtailed + np.minimum(sums["waste"], used)
    ratio = np.zeros(batch)
    np.divide(lost, produced, out=ratio, where=produced != 0)
    ds_ratio = np.zeros(batch)
    np.divide(served_ds, demand_ds, out=ds_ratio, where=demand_ds != 0)
    return {
        "controller_name": list(controller_name),
        "n_slots": np.full(batch, n_slots),
        "cost_lt": cost_lt,
        "cost_rt": cost_rt,
        "cost_battery": cost_battery,
        "cost_waste": cost_waste,
        "total_cost": total,
        "time_avg_cost": total / n_slots,
        "avg_delay_slots": np.array([s.average_delay for s in delays]),
        "worst_delay_slots": np.array([s.max_delay for s in delays]),
        "served_dt_energy": np.array([s.served_energy for s in delays]),
        "availability": np.where(demand_ds == 0, 1.0, ds_ratio),
        "unserved_ds_total": unserved_ds,
        "renewable_utilization": np.where(
            produced == 0, 1.0, np.maximum(0.0, 1.0 - ratio)),
        "waste_mwh": sums["waste"],
        "battery_ops": battery_ops,
        "battery_throughput": sums["charge"] + sums["discharge"],
        "peak_backlog": aggregator._peak_backlog,
        "final_backlog": aggregator._final_backlog,
        "battery_min": aggregator._battery_min,
        "battery_max": aggregator._battery_max,
        "lt_energy": lt_energy,
        "rt_energy": rt_energy,
        "seed": list(seed),
    }


@dataclass(frozen=True)
class ScenarioMetrics:
    """The fleet record schema: one scenario's metrics (O(1) memory).

    Each field is one column of a metrics block (see :func:`_fold`);
    the field order is the record key order.  Field definitions mirror
    :class:`~repro.sim.results.SimulationResult` summaries, with sums
    accumulated in slot order (see the module docstring for why that
    makes streamed == in-memory exact).
    """

    controller_name: str
    n_slots: int
    cost_lt: float
    cost_rt: float
    cost_battery: float
    cost_waste: float
    total_cost: float
    time_avg_cost: float
    avg_delay_slots: float
    worst_delay_slots: int
    served_dt_energy: float
    availability: float
    unserved_ds_total: float
    renewable_utilization: float
    waste_mwh: float
    battery_ops: int
    battery_throughput: float
    peak_backlog: float
    final_backlog: float
    battery_min: float
    battery_max: float
    lt_energy: float
    rt_energy: float
    seed: int | None = None
    #: Replayed cost of the clairvoyant offline plan on this scenario's
    #: traces, and the policy's relative gap against it.  ``None``
    #: unless the fleet run asked for the offline-gap column.
    offline_cost: float | None = None
    offline_gap: float | None = None
    #: Cost of the same scenario re-run under the robustness
    #: observation model, and the relative degradation against the
    #: clean cost (``None`` unless the fleet run asked for the paired
    #: robustness sweep).
    noisy_cost: float | None = None
    robustness_gap: float | None = None
    #: The observation model's relative error when this record itself
    #: ran under uniform observation noise (``None`` when noise-free
    #: or under a non-uniform sensor-fault model).
    observation_rel_error: float | None = None

    #: Optional columns: left out of a record where they are ``None``
    #: (and everywhere when a block lacks them), so records without
    #: them keep their shape.
    _OPTIONAL = ("offline_cost", "offline_gap", "noisy_cost",
                 "robustness_gap", "observation_rel_error")

    @classmethod
    def rows(cls, block: Mapping[str, np.ndarray | list]) -> list[dict]:
        """Encode a metrics block as JSON-ready dicts, one per scenario.

        Keys follow the field order, values are plain Python scalars,
        and an optional column's ``None`` entries are left out.
        """
        names = [f.name for f in fields(cls) if f.name in block]
        columns = [block[name].tolist() if isinstance(block[name], np.ndarray)
                   else block[name] for name in names]
        optional = cls._OPTIONAL
        return [{name: value for name, value in zip(names, values)
                 if value is not None or name not in optional}
                for values in zip(*columns)]

    def as_dict(self) -> dict:
        """JSON-ready form: this record as a one-row :meth:`rows` block."""
        return self.rows({
            name: [value.item() if isinstance(value, np.generic) else value]
            for name, value in self.__dict__.items()})[0]

    @classmethod
    def from_result(cls, result: SimulationResult,
                    seed: int | None = None) -> "ScenarioMetrics":
        """The same metrics computed from an in-memory result.

        Feeds the recorded series through a batch-of-one
        :class:`StreamingAggregator` slot by slot and then through the
        streamed engine's fold (:func:`_fold`) with the result's delay
        ledger, so every sum uses the identical accumulation order as
        the streamed engine — bit-identical series therefore produce
        bit-identical metrics.
        """
        series = result.series
        aggregator = StreamingAggregator(1)
        columns = {name: series[name]
                   for name in (*_SUMMED, "backlog", "battery_level")}
        for slot in range(result.n_slots):
            aggregator.record(**{name: column[slot:slot + 1]
                                 for name, column in columns.items()})
        block = _fold(
            aggregator, [result.delay_stats],
            controller_name=[result.controller_name],
            n_slots=result.n_slots,
            battery_ops=np.array([result.battery_operations]),
            lt_energy=np.array([result.lt_energy]),
            rt_energy=np.array([result.rt_energy]), seed=[seed])
        return cls(**cls.rows(block)[0])


class StreamingBatchSimulator(BatchSimulator):
    """Chunk-at-a-time batch engine over :class:`StreamRunSpec` fleets.

    ``chunk_coarse`` sets how many coarse slots of trace data are
    resident per scenario at any time (plus a ``T``-slot planning
    tail).  :meth:`run` returns the fleet's metrics block: one
    column per :class:`ScenarioMetrics` field, rows in spec order.

    Chunks load through one batch cursor: a
    :class:`~repro.fleet.stream.BatchTraceStream` when every run's
    trace source is kernel-backed
    (:class:`~repro.fleet.stream.StreamingPaperTraces`) — a single
    vectorized kernel pass per window for the whole batch — and an
    :class:`~repro.fleet.stream.ArrayBatchStream` over the materialized
    sources otherwise.  Runs sharing one stream object share one lane
    of either; every window is bit-identical to the run's own cursor.
    """

    def __init__(self, runs: Sequence[StreamRunSpec],
                 controller: BatchController | None = None,
                 *, chunk_coarse: int = 4, telemetry=None, faults=None):
        self._init_group(runs, controller, telemetry=telemetry)
        if chunk_coarse < 1:
            raise ConfigurationError(
                f"chunk_coarse must be >= 1, got {chunk_coarse}")
        #: Optional :class:`~repro.fleet.faults.ShardFaults` — chaos
        #: hooks at the ``traces``/``observe``/``plan``/``slot_loop``
        #: sites.  None (the default) costs one identity check per
        #: chunk.
        self._faults = faults
        self._observations: list[ObservationSpec | None] = []
        for run in self.runs:
            observation = getattr(run, "observation", None)
            if observation is not None and not isinstance(
                    observation, ObservationSpec):
                raise ConfigurationError(
                    f"observation must be an ObservationSpec or None, "
                    f"got {type(observation).__name__}")
            self._observations.append(observation)
        #: Chunked observation cursor (rebuilt per run() so carry state
        #: restarts at the horizon); ``None`` with observation off, so
        #: the observed view aliases the truth at zero cost.
        self._observer: BatchObserver | None = None
        self._obs_tail: dict[str, np.ndarray] | None = None
        for run in self.runs:
            if run.stream.n_slots < self._n_slots:
                raise HorizonMismatchError(
                    f"stream covers {run.stream.n_slots} slots but the "
                    f"system horizon needs {self._n_slots}")
        self._chunk_slots = chunk_coarse * self._t_slots
        self._seeds: list[int | None] = [
            getattr(run.stream, "seed", None) for run in self.runs]
        streams = [run.stream for run in self.runs]
        self._trace_source = (BatchTraceStream.for_streams(streams)
                              or ArrayBatchStream(streams))

    def _make_recorder(self) -> StreamingAggregator:
        return StreamingAggregator(self._batch)

    # ------------------------------------------------------------------
    # Chunk loading
    # ------------------------------------------------------------------

    def _install_chunk(self, columns: dict[str, np.ndarray],
                       price_lt: np.ndarray, start: int, stop: int,
                       tail: dict[str, np.ndarray] | None,
                       price_lt_fine: np.ndarray | None = None
                       ) -> dict[str, np.ndarray]:
        """Point the engine at stacked ``(B, chunk)`` trace columns.

        ``columns`` holds the four fine-grained series for
        ``[start, stop)``; ``price_lt`` the coarse prices of the
        chunk's coarse slots; ``price_lt_fine`` the fine hourly prices
        behind them (loaded only when an observer is active).
        Prepends the ``T``-slot planning tail, updates the window
        offsets, rebuilds the capacity rows, and returns the next
        tail.  With observation off both views alias one set of
        arrays; with an observer the observed view is derived from the
        raw chunk (its own carry tail threads through
        ``self._obs_tail``) while physics stays on the truth.
        """
        t_slots = self._t_slots
        raw = columns
        if tail is not None:
            columns = {name: np.concatenate([tail[name], block], axis=1)
                       for name, block in columns.items()}
        self._true_dds = columns["demand_ds"]
        self._true_ddt = columns["demand_dt"]
        self._true_ren = columns["renewable"]
        self._true_prt = columns["price_rt"]
        self._true_plt = price_lt
        self._coarse0 = start // t_slots
        self._slot0 = start if tail is None else start - t_slots

        observer = self._observer
        if observer is None:
            self._obs_dds = self._true_dds
            self._obs_ddt = self._true_ddt
            self._obs_ren = self._true_ren
            self._obs_prt = self._true_prt
            self._obs_plt = self._true_plt
        else:
            tele = self._telemetry
            t0 = tele.clock() if tele.enabled else 0.0
            observed = {name: observer.observe_matrix(name, raw[name])
                        for name in ("demand_ds", "demand_dt",
                                     "renewable", "price_rt")}
            obs_tail = self._obs_tail
            self._obs_tail = {name: block[:, -t_slots:]
                              for name, block in observed.items()}
            if obs_tail is not None:
                observed = {
                    name: np.concatenate([obs_tail[name], block], axis=1)
                    for name, block in observed.items()}
            self._obs_dds = observed["demand_ds"]
            self._obs_ddt = observed["demand_dt"]
            self._obs_ren = observed["renewable"]
            self._obs_prt = observed["price_rt"]
            obs_plt_fine = observer.observe_matrix("price_lt",
                                                   price_lt_fine)
            if obs_plt_fine is price_lt_fine:
                self._obs_plt = self._true_plt
            else:
                # Same reshape-mean the true coarse prices come from,
                # applied to the perturbed fine series — matching the
                # in-memory reference's TraceSet.coarse_prices bit for
                # bit.
                self._obs_plt = obs_plt_fine.reshape(
                    self._batch, -1, t_slots).mean(axis=2)
            if tele.enabled:
                tele.add_time("observe", tele.clock() - t0)

        self._capacity = self._capacity_rows(self._slot0, stop)

        if self._faults is not None:
            self._faults.fire("traces", slot=start)
            self._corrupt_chunk(start, stop)
            self._faults.fire("observe", slot=start)
            self._corrupt_observed(start, stop)
        self._check_chunk_finite(start, stop)
        self._check_prices(start)
        return {
            "demand_ds": self._true_dds[:, -t_slots:],
            "demand_dt": self._true_ddt[:, -t_slots:],
            "renewable": self._true_ren[:, -t_slots:],
            "price_rt": self._true_prt[:, -t_slots:],
        }

    def _load_chunk(self, start: int, stop: int, cursor,
                    tail: dict[str, np.ndarray] | None
                    ) -> dict[str, np.ndarray]:
        """Read one ``TraceBlock`` covering every scenario and install it."""
        block = cursor.read(stop - start)
        columns = {
            "demand_ds": block.demand_ds,
            "demand_dt": block.demand_dt,
            "renewable": block.renewable,
            "price_rt": block.price_rt,
        }
        price_lt = block.coarse_prices(self._t_slots)
        price_lt_fine = (block.price_lt_hourly
                         if self._observer is not None else None)
        return self._install_chunk(columns, price_lt, start, stop, tail,
                                   price_lt_fine=price_lt_fine)

    #: Fine-grained series attributes the corruption / finiteness
    #: passes walk (true view; the observed view aliases it).
    _SERIES_ATTRS = (("demand_ds", "_true_dds"), ("demand_dt", "_true_ddt"),
                     ("renewable", "_true_ren"), ("price_rt", "_true_prt"))

    def _corrupt_chunk(self, start: int, stop: int) -> None:
        """Apply ``nan`` faults landing in ``[start, stop)``.

        Chunk columns may alias frozen :class:`TraceBlock` arrays, so
        a targeted series is copied before poisoning (and the observed
        alias re-pointed — only when it *was* an alias; a derived
        observed view must not be clobbered).  Healthy series keep
        their zero-copy path.
        """
        local0 = start - self._slot0
        for scenario, series, slot in self._faults.nan_targets(start,
                                                               stop):
            attr = dict(self._SERIES_ATTRS)[series]
            obs_attr = attr.replace("_true_", "_obs_")
            block = getattr(self, attr)
            if not block.flags.writeable:
                copy = block.copy()
                setattr(self, attr, copy)
                if getattr(self, obs_attr) is block:
                    setattr(self, obs_attr, copy)
                block = copy
            block[scenario, local0 + (slot - start)] = np.nan

    def _corrupt_observed(self, start: int, stop: int) -> None:
        """Apply ``nan`` faults at the ``observe`` site.

        Poisons the *observed* view only: when the observed series
        still aliases the truth (or is frozen) it is detached with a
        copy first, so physics keeps running on clean trace data and
        the finiteness scan attributes the corruption to the observed
        view.
        """
        local0 = start - self._slot0
        for scenario, series, slot in self._faults.nan_targets(
                start, stop, site="observe"):
            attr = dict(self._SERIES_ATTRS)[series]
            obs_attr = attr.replace("_true_", "_obs_")
            block = getattr(self, obs_attr)
            if block is getattr(self, attr) or not block.flags.writeable:
                block = block.copy()
                setattr(self, obs_attr, block)
            block[scenario, local0 + (slot - start)] = np.nan

    def _check_chunk_finite(self, start: int, stop: int) -> None:
        """Reject NaN/Inf trace values as each chunk loads.

        A generated window is already rejected by its
        :class:`~repro.traces.base.TraceBlock` validation; this scan
        (four batched ``isfinite`` reductions) also catches values
        poisoned after the block loaded, such as the fault harness's
        ``nan`` injections.  Either raises a typed
        :class:`TraceCorruptionError` naming the scenario position,
        seed and absolute slot — precise enough for the fleet runner
        to quarantine exactly that scenario without bisection.

        Observed series that no longer alias the truth (an active
        observation model, or an ``observe``-site fault) are scanned
        too; corruption there raises the
        :class:`ObservationCorruptionError` subclass naming the view
        and series, so a bad sensor model is never mistaken for bad
        trace generation.  The alias check keeps the noise-off path at
        four ``is`` comparisons.
        """
        local = start - self._slot0
        for name, attr in self._SERIES_ATTRS:
            window = getattr(self, attr)[:, local:]
            finite = np.isfinite(window)
            if finite.all():
                continue
            scenario, offset = np.argwhere(~finite)[0]
            scenario, slot = int(scenario), start + int(offset)
            seed = self._seeds[scenario]
            raise TraceCorruptionError(
                f"non-finite value in trace series {name!r} at slot "
                f"{slot} (scenario position {scenario}, seed {seed})",
                scenario=scenario, slot=slot, seed=seed)
        # (name, observed, true, first column, fine slots per column):
        # the long-term prices hold one column per coarse slot.
        observed_blocks = [
            (name, getattr(self, attr.replace("_true_", "_obs_")),
             getattr(self, attr), local, 1)
            for name, attr in self._SERIES_ATTRS]
        observed_blocks.append(
            ("price_lt", self._obs_plt, self._true_plt, 0, self._t_slots))
        for name, observed, true, offset0, stride in observed_blocks:
            if observed is true:
                continue
            window = observed[:, offset0:]
            finite = np.isfinite(window)
            if finite.all():
                continue
            scenario, offset = np.argwhere(~finite)[0]
            scenario, slot = int(scenario), start + int(offset) * stride
            seed = self._seeds[scenario]
            raise ObservationCorruptionError(
                f"non-finite value in observed trace series {name!r} "
                f"at slot {slot} (scenario position {scenario}, seed "
                f"{seed})", scenario=scenario, slot=slot, seed=seed,
                series=name, view="observed")

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> dict[str, np.ndarray | list]:
        """Stream every scenario over the horizon, chunk by chunk.

        Returns the metrics block (see :func:`_fold`); encode it into
        record dicts with :meth:`ScenarioMetrics.rows`.

        Stage timings (chunk generation, observation derivation, the
        slot loop, delay replay, metric collection) are guarded on
        ``tele.enabled``; the
        instrumentation reads clocks only, so streamed metrics are
        bit-identical with telemetry on or off.
        """
        tele = self._telemetry
        faults = self._faults
        fire_slots = faults is not None and (
            faults.active("slot_loop") or faults.active("plan"))
        # Fresh observation cursors per run: carry state (dropout
        # holds, drift walks, delay buffers) restarts at the horizon,
        # so replaying the simulator is deterministic.
        if any(spec is not None for spec in self._observations):
            self._observer = BatchObserver(self._observations)
        else:
            self._observer = None
        self._obs_tail = None
        state = self._begin_run()
        # Opening the cursor (the kernel lanes' RNG minting, or the
        # array lanes' materialization) counts under the first chunk's
        # ``traces``; every later chunk's span starts where the previous
        # chunk's delay replay ended.
        t0 = tele.clock() if tele.enabled else 0.0
        cursor = self._trace_source.open()
        tail: dict[str, np.ndarray] | None = None
        for start in range(0, self._n_slots, self._chunk_slots):
            stop = min(start + self._chunk_slots, self._n_slots)
            tail = self._load_chunk(start, stop, cursor, tail)
            if tele.enabled:
                tele.add_time("traces", tele.clock() - t0)
                tele.count("chunks")
                t0 = tele.clock()
            for slot in range(start, stop):
                if fire_slots:
                    faults.fire("plan" if slot % self._t_slots == 0
                                else "slot_loop", slot=slot)
                self._advance_slot(slot, state)
            if tele.enabled:
                tele.add_time("slot_loop", tele.clock() - t0)
                tele.count("slots", stop - start)
                t0 = tele.clock()
            state.recorder.flush_delays(
                start, self._true_ddt[:, start - self._slot0:])
            if tele.enabled:
                tele.add_time("delay_replay", tele.clock() - t0)
                t0 = tele.clock()
        block = self._finish_run(state)
        if tele.enabled:
            tele.add_time("collect", tele.clock() - t0)
            tele.count("scenarios", self._batch)
        return block

    def _collect(self, recorder: StreamingAggregator, cycles, lt_ledger,
                 rt_ledger) -> dict[str, np.ndarray | list]:
        """Fold the aggregator and its delay ledgers into the block."""
        return _fold(
            recorder, [replay.stats() for replay in recorder._replays],
            controller_name=self.controller.names, n_slots=self._n_slots,
            battery_ops=cycles.operations, lt_energy=lt_ledger.energy,
            rt_energy=rt_ledger.energy, seed=self._seeds)
