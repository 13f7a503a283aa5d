"""Streaming batch engine: chunked traces, O(B) result state.

:class:`StreamingBatchSimulator` subclasses the in-memory
:class:`~repro.sim.batch.BatchSimulator` and reuses its per-slot
arithmetic verbatim — the only overrides load trace *chunks* into the
column arrays (advancing the base engine's ``_slot0`` / ``_coarse0``
window offsets) and replace the ``(B, horizon)`` recorder with the
O(B) :class:`StreamingAggregator`.  Peak memory is therefore
``O(B · chunk)`` for traces plus ``O(B)`` for results, instead of the
in-memory engine's ``O(B · horizon)`` for both.

Exactness contract: per-slot physics outputs are bit-identical to the
in-memory engine (same code runs), and every aggregate in
:class:`ScenarioMetrics` is accumulated slot-by-slot in slot order —
the same IEEE-754 additions :meth:`ScenarioMetrics.from_result`
applies to an in-memory result's series — so streamed metrics equal
in-memory metrics *exactly*, not just within tolerance.  Enforced by
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

The trace source is picked from the input: when every stream is
kernel-backed, chunks load through one
:class:`~repro.fleet.stream.BatchTraceStream` cursor (one vectorized
kernel pass per window for the whole batch); any other stream (e.g. a
materialized :class:`~repro.fleet.stream.ArrayTraceStream`) loads
through ``B`` per-scenario cursors.  Both produce bit-identical
windows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace
from typing import Sequence

import numpy as np

from repro.config.system import SystemConfig
from repro.core.interfaces import Controller
from repro.exceptions import (
    ConfigurationError,
    HorizonMismatchError,
    ObservationCorruptionError,
    StateError,
    TraceCorruptionError,
)
from repro.fleet.observe import BatchObserver, ObservationSpec
from repro.fleet.stream import BatchTraceStream, TraceStream
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
    full series.  Sums advance with elementwise ``+=`` in slot order so
    the accumulation arithmetic is reproducible from any bit-identical
    series (see :meth:`ScenarioMetrics.from_result`).
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
        self._slots_recorded = 0

    @property
    def cursor(self) -> int:
        """Slots recorded so far (recorder-interface compatibility)."""
        return self._slots_recorded

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
        self._slots_recorded += 1

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

    def sum(self, name: str, index: int) -> float:
        return float(self._sums[name][index])

    def delay_stats(self, index: int) -> DelayStats:
        if self._buffered:
            raise StateError("flush_delays() not called for the "
                               "final chunk")
        return self._replays[index].stats()

    def scenario_metrics(self, index: int, *, controller_name: str,
                         n_slots: int, battery_operations: int,
                         lt_energy: float, rt_energy: float,
                         seed: int | None = None) -> "ScenarioMetrics":
        """Fold one scenario's aggregates into a metrics record.

        ``StreamingBatchSimulator._collect`` applies these same
        formulas vectorized over the batch; any change to a derived
        quantity here must be mirrored there (the equivalence harness
        compares the two paths exactly and will trip on a desync).
        """
        stats = self.delay_stats(index)
        get = self.sum
        cost_lt = get("cost_lt", index)
        cost_rt = get("cost_rt", index)
        cost_battery = get("cost_battery", index)
        cost_waste = get("cost_waste", index)
        total = cost_lt + cost_rt + cost_battery + cost_waste
        served_ds = get("served_ds", index)
        unserved_ds = get("unserved_ds", index)
        demand_ds = served_ds + unserved_ds
        produced = (get("renewable_used", index)
                    + get("renewable_curtailed", index))
        if produced == 0:
            utilization = 1.0
        else:
            lost = get("renewable_curtailed", index)
            lost += min(get("waste", index), get("renewable_used", index))
            utilization = max(0.0, 1.0 - lost / produced)
        return ScenarioMetrics(
            controller_name=controller_name,
            n_slots=n_slots,
            cost_lt=cost_lt,
            cost_rt=cost_rt,
            cost_battery=cost_battery,
            cost_waste=cost_waste,
            total_cost=total,
            time_avg_cost=total / n_slots,
            avg_delay_slots=stats.average_delay,
            worst_delay_slots=stats.max_delay,
            served_dt_energy=stats.served_energy,
            availability=1.0 if demand_ds == 0 else served_ds / demand_ds,
            unserved_ds_total=unserved_ds,
            renewable_utilization=utilization,
            waste_mwh=get("waste", index),
            battery_ops=battery_operations,
            battery_throughput=(get("charge", index)
                                + get("discharge", index)),
            peak_backlog=float(self._peak_backlog[index]),
            final_backlog=float(self._final_backlog[index]),
            battery_min=float(self._battery_min[index]),
            battery_max=float(self._battery_max[index]),
            lt_energy=lt_energy,
            rt_energy=rt_energy,
            seed=seed,
        )


@dataclass(frozen=True)
class ScenarioMetrics:
    """Fleet-level result record for one scenario (O(1) memory).

    Field definitions mirror :class:`~repro.sim.results.SimulationResult`
    summaries, with sums accumulated in slot order (see module
    docstring for why that makes streamed == in-memory exact).
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
    #: unless the fleet run asked for the offline-gap column; omitted
    #: from :meth:`as_dict` when absent so existing records keep their
    #: shape.
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

    #: Optional columns omitted from :meth:`as_dict` when unset, so
    #: existing records keep their shape.
    _OPTIONAL = ("offline_cost", "offline_gap", "noisy_cost",
                 "robustness_gap", "observation_rel_error")

    def as_dict(self) -> dict:
        """JSON-ready form (what the result store persists)."""
        out = {}
        for name, value in self.__dict__.items():
            if name in self._OPTIONAL and value is None:
                continue
            if isinstance(value, (np.floating, np.integer)):
                value = value.item()
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioMetrics":
        return cls(**data)

    @classmethod
    def from_result(cls, result: SimulationResult,
                    seed: int | None = None) -> "ScenarioMetrics":
        """The same metrics computed from an in-memory result.

        Feeds the recorded series through a batch-of-one
        :class:`StreamingAggregator` slot by slot, so every sum uses
        the identical accumulation order as the streamed engine —
        bit-identical series therefore produce bit-identical metrics.
        Delay statistics are copied from the result's ledger (already
        exact across engines by the PR-1 contract).
        """
        series = result.series
        n_slots = result.n_slots
        aggregator = StreamingAggregator(1)
        needed = (*_SUMMED, "backlog", "battery_level")
        columns = {name: series[name] for name in needed}
        for slot in range(n_slots):
            aggregator.record(**{name: column[slot:slot + 1]
                                 for name, column in columns.items()})
        # The result's delay ledger is authoritative; skip the replay.
        aggregator._buffered = 0
        metrics = aggregator.scenario_metrics(
            0, controller_name=result.controller_name, n_slots=n_slots,
            battery_operations=int(result.battery_operations),
            lt_energy=float(result.lt_energy),
            rt_energy=float(result.rt_energy), seed=seed)
        stats = result.delay_stats
        return dataclass_replace(
            metrics,
            avg_delay_slots=stats.average_delay,
            worst_delay_slots=stats.max_delay,
            served_dt_energy=stats.served_energy,
        )


class StreamingBatchSimulator(BatchSimulator):
    """Chunk-at-a-time batch engine over :class:`StreamRunSpec` fleets.

    ``chunk_coarse`` sets how many coarse slots of trace data are
    resident per scenario at any time (plus a ``T``-slot planning
    tail).  Returns one :class:`ScenarioMetrics` per spec, in order.

    When every run's trace source is kernel-backed
    (:class:`~repro.fleet.stream.StreamingPaperTraces`), chunks load
    through one :class:`~repro.fleet.stream.BatchTraceStream` cursor —
    a single vectorized kernel pass per window for the whole batch,
    bit-identical to the per-scenario cursors every other source uses.
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
            if run.grid_capacity is not None:
                capacity = np.asarray(run.grid_capacity, dtype=float)
                if capacity.size < self._n_slots:
                    raise HorizonMismatchError(
                        f"grid capacity covers {capacity.size} slots "
                        f"but the horizon needs {self._n_slots}")
                if np.any(capacity < 0):
                    raise ConfigurationError("grid capacity must be >= 0")
        self._chunk_slots = chunk_coarse * self._t_slots
        self._seeds: list[int | None] = [
            getattr(run.stream, "seed", None) for run in self.runs]
        self._batch_source = BatchTraceStream.for_streams(
            [run.stream for run in self.runs])

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

        rows = []
        for index, run in enumerate(self.runs):
            if run.grid_capacity is None:
                rows.append(np.full(stop - self._slot0,
                                    self.systems[index].p_grid))
            else:
                capacity = np.asarray(run.grid_capacity, dtype=float)
                rows.append(capacity[self._slot0:stop])
        self._capacity = np.stack(rows)

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

    def _load_chunk(self, start: int, stop: int, cursors,
                    tail: dict[str, np.ndarray] | None
                    ) -> dict[str, np.ndarray]:
        """Per-scenario cursor path: read and stack ``B`` windows."""
        windows = [cursor.read(stop - start) for cursor in cursors]
        columns = {
            name: np.stack([np.asarray(getattr(w, name), dtype=float)
                            for w in windows])
            for name in ("demand_ds", "demand_dt", "renewable",
                         "price_rt")}
        price_lt = np.stack(
            [w.coarse_prices(self._t_slots) for w in windows])
        price_lt_fine = None
        if self._observer is not None:
            price_lt_fine = np.stack(
                [np.asarray(w.price_lt_hourly, dtype=float)
                 for w in windows])
        return self._install_chunk(columns, price_lt, start, stop, tail,
                                   price_lt_fine=price_lt_fine)

    def _load_chunk_batch(self, start: int, stop: int, cursor,
                          tail: dict[str, np.ndarray] | None
                          ) -> dict[str, np.ndarray]:
        """Batch kernel path: one ``TraceBlock`` covers every scenario."""
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

        Kernel-generated chunks bypass the :class:`TraceSet`
        constructor validation the in-memory path gets for free, so
        the streamed engine scans every loaded window (four batched
        ``isfinite`` reductions) and raises a typed
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
        observed_blocks = [
            (name, getattr(self, attr.replace("_true_", "_obs_")),
             getattr(self, attr), local)
            for name, attr in self._SERIES_ATTRS]
        observed_blocks.append(
            ("price_lt", self._obs_plt, self._true_plt, 0))
        for name, observed, true, offset0 in observed_blocks:
            if observed is true:
                continue
            window = observed[:, offset0:]
            finite = np.isfinite(window)
            if finite.all():
                continue
            scenario, offset = np.argwhere(~finite)[0]
            scenario, slot = int(scenario), start + int(offset)
            seed = self._seeds[scenario]
            raise ObservationCorruptionError(
                f"non-finite value in observed trace series {name!r} "
                f"at slot {slot} (scenario position {scenario}, seed "
                f"{seed})", scenario=scenario, slot=slot, seed=seed,
                series=name, view="observed")

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> list[ScenarioMetrics]:
        """Stream every scenario over the horizon, chunk by chunk.

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
        if self._batch_source is not None:
            batch_cursor = self._batch_source.open()

            def load(start, stop, tail):
                return self._load_chunk_batch(start, stop, batch_cursor,
                                              tail)
        else:
            cursors = [run.stream.open() for run in self.runs]

            def load(start, stop, tail):
                return self._load_chunk(start, stop, cursors, tail)

        tail: dict[str, np.ndarray] | None = None
        for start in range(0, self._n_slots, self._chunk_slots):
            stop = min(start + self._chunk_slots, self._n_slots)
            t0 = tele.clock() if tele.enabled else 0.0
            tail = load(start, stop, tail)
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
        t0 = tele.clock() if tele.enabled else 0.0
        metrics = self._finish_run(state)
        if tele.enabled:
            tele.add_time("collect", tele.clock() - t0)
            tele.count("scenarios", self._batch)
        return metrics

    def _collect(self, recorder: StreamingAggregator, cycles, lt_ledger,
                 rt_ledger) -> list[ScenarioMetrics]:
        """Fold the aggregator into metrics, one array pass per field.

        Every derived quantity uses the same elementwise IEEE-754
        operations :meth:`StreamingAggregator.scenario_metrics` applies
        per scenario, so the records are bit-identical to the
        per-index path (which :meth:`ScenarioMetrics.from_result`, the
        in-memory reference, still runs through).
        """
        names = self.controller.names
        get = recorder._sums
        cost_lt, cost_rt = get["cost_lt"], get["cost_rt"]
        cost_battery, cost_waste = get["cost_battery"], get["cost_waste"]
        total = cost_lt + cost_rt + cost_battery + cost_waste
        served_ds, unserved_ds = get["served_ds"], get["unserved_ds"]
        demand_ds = served_ds + unserved_ds
        used, curtailed = (get["renewable_used"],
                           get["renewable_curtailed"])
        produced = used + curtailed
        lost = curtailed + np.minimum(get["waste"], used)
        ratio = np.zeros(self._batch)
        np.divide(lost, produced, out=ratio, where=produced != 0)
        utilization = np.where(produced == 0, 1.0,
                               np.maximum(0.0, 1.0 - ratio))
        ds_ratio = np.zeros(self._batch)
        np.divide(served_ds, demand_ds, out=ds_ratio,
                  where=demand_ds != 0)
        availability = np.where(demand_ds == 0, 1.0, ds_ratio)
        throughput = get["charge"] + get["discharge"]
        metrics = []
        for index in range(self._batch):
            stats = recorder.delay_stats(index)
            metrics.append(ScenarioMetrics(
                controller_name=names[index],
                n_slots=self._n_slots,
                cost_lt=float(cost_lt[index]),
                cost_rt=float(cost_rt[index]),
                cost_battery=float(cost_battery[index]),
                cost_waste=float(cost_waste[index]),
                total_cost=float(total[index]),
                time_avg_cost=float(total[index]) / self._n_slots,
                avg_delay_slots=stats.average_delay,
                worst_delay_slots=stats.max_delay,
                served_dt_energy=stats.served_energy,
                availability=float(availability[index]),
                unserved_ds_total=float(unserved_ds[index]),
                renewable_utilization=float(utilization[index]),
                waste_mwh=float(get["waste"][index]),
                battery_ops=int(cycles.operations[index]),
                battery_throughput=float(throughput[index]),
                peak_backlog=float(recorder._peak_backlog[index]),
                final_backlog=float(recorder._final_backlog[index]),
                battery_min=float(recorder._battery_min[index]),
                battery_max=float(recorder._battery_max[index]),
                lt_energy=float(lt_ledger.energy[index]),
                rt_energy=float(rt_ledger.energy[index]),
                seed=self._seeds[index],
            ))
        return metrics
