"""The batch engine: ``B`` scenarios in lockstep, chunked traces, O(B)
result state.

:class:`StreamingBatchSimulator` advances ``B`` independent scenarios
through the DPSS physics per slot in ``(B,)`` array form — eq.-4
supply-demand balance, battery SOC dynamics, backlog queue and billing
— with controllers plugged in through the batch protocol of
:mod:`repro.sim.batch` (the vectorized
:class:`~repro.core.smartdpss_vec.VecSmartDPSS` when every run is
SmartDPSS, :class:`~repro.sim.batch.ScalarControllerBatch` otherwise).
The vectorized controller keeps every scenario's state in its own
arrays and reads only the config and name of the runs' ``SmartDPSS``
instances, so a run leaves them untouched; the scalar batch drives
the runs' own controllers, copying any instance two runs share.
It is the one batch engine: every :class:`~repro.fleet.runner.FleetRunner`
shard, every paper figure and the fleet's derived passes run on it.
The scalar :class:`~repro.sim.engine.Simulator` is its reference
oracle and the source of per-slot series.

Traces arrive a *chunk* at a time: the engine loads ``(B, chunk)``
trace columns and reads them through the window offsets ``_slot0`` /
``_coarse0``.  Each slot's physics runs in a :class:`PhysicsWorkspace`
built once per run (every temporary a preallocated ``(B,)`` buffer
written with ``out=`` / ``copyto`` ufunc calls), so the slot loop
allocates nothing, and results accumulate in the O(B)
:class:`StreamingAggregator`.  Results take ``O(B)`` memory.  Trace
memory is ``O(B · chunk)`` for kernel-streamed shards (every run a
``stream`` recipe); a shard whose sources are materialized — the
offline gap, ``paper`` recipes, oracle controllers — holds each
distinct lane's whole horizon.

A run returns one *metrics block*: a dict holding one length-``B``
column per :class:`ScenarioMetrics` field.  :class:`ScenarioMetrics`
is the record schema — its field order is the record key order and
its ``_OPTIONAL`` columns are left out of a record where they are
``None`` — and :meth:`ScenarioMetrics.rows` encodes a block into
record dicts.

Derived passes that read only the cost column — the fleet's offline
replay and robustness re-run — call the cost-only entry
:meth:`StreamingBatchSimulator.time_avg_cost` instead.  It runs the
same chunk and slot loop but records only the four cost sums
(:class:`_CostSums`): no delay ledger, extrema or service buffer and
no fold.  Its column comes from the one
cost expression the fold uses (:func:`_costs`), so it equals
``run()["time_avg_cost"]`` bit for bit.  Any other recorder with the
same ``record`` / ``flush_delays`` interface plugs into the same loop
(``_stream(recorder)``); tests that compare series slot by slot plug
in one that keeps every series.

Exactness contract: per-slot physics outputs are bit-identical to the
scalar engine's (same IEEE-754 operations in the same order; see
:mod:`repro.sim.vecstate`), the aggregator accumulates every sum slot
by slot in slot order, and one fold (:func:`_fold`) turns the
aggregates and delay ledgers into the block.  A scalar result's series
fed through the same aggregator and the same fold, with the result's
delay ledger, therefore give the batch metrics *exactly*, not just
within tolerance.  Enforced by ``tests/equivalence/``.

Chunks must cover whole coarse slots (``chunk_coarse`` many), because
long-term prices are per-coarse-slot averages and planning happens at
coarse boundaries.  Each loaded chunk keeps a ``T``-slot tail of its
predecessor so the planner's previous-window profile lookback stays
resident: planning consumes one
:class:`~repro.core.interfaces.BatchCoarseObservation` per boundary,
sliced straight out of the resident window by
``StreamingBatchSimulator._coarse_observations``, which raises
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
lane, and row ``b`` of every window is run ``b``'s own stream: its
kernel lane's next window, or the next slice of its source's
materialized horizon.
The observation layer follows the lanes: runs on one lane with equal
observation specs share one noise lane of the
:class:`~repro.fleet.observe.BatchObserver`.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from repro.config.system import SystemConfig
from repro.core.interfaces import BatchCoarseObservation, Controller
from repro.core.smartdpss import SmartDPSS
from repro.core.smartdpss_vec import VecSmartDPSS
from repro.exceptions import (
    ConfigurationError,
    HorizonMismatchError,
    InfeasibleActionError,
    ObservationCorruptionError,
    TraceCorruptionError,
)
from repro.fleet.observe import BatchObserver, ObservationSpec
from repro.fleet.stream import ArrayBatchStream, BatchTraceStream, TraceStream
from repro.sim.batch import (
    BatchController,
    BatchFineObservation,
    BatchSlotFeedback,
    ScalarControllerBatch,
)
from repro.sim.engine import checked_grid_capacity
from repro.sim.vecstate import (
    DelayReplay,
    VecBacklog,
    VecBattery,
    VecCycleLedger,
    VecMarketLedger,
)
from repro.telemetry.core import TELEMETRY_OFF
from repro.workload.queue import DelayStats

#: The four per-slot cost series: all a cost-only pass sums.
_COSTS = ("cost_lt", "cost_rt", "cost_battery", "cost_waste")

#: Per-slot series summed into scenario totals by the aggregator.
_SUMMED = (*_COSTS, "served_ds", "served_dt", "unserved_ds",
           "renewable_used", "renewable_curtailed", "charge", "discharge",
           "waste")


@dataclass(frozen=True)
class StreamRunSpec:
    """One batch-engine simulation request.

    Traces come as a replayable
    :class:`~repro.fleet.stream.TraceStream` (wrap a resident
    :class:`~repro.traces.base.TraceSet` in an
    :class:`~repro.fleet.stream.ArrayTraceStream`).  ``grid_capacity``
    is an optional full per-slot feeder capacity array (sliced per
    chunk; ``None`` means a static ``Pgrid``).  ``observation`` is an optional
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
    aggregates into a metrics block.  The same aggregator fed a scalar
    result's series reproduces every sum bit for bit.
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
        # One ``tolist()`` per block: the replay reads Python floats.
        for replay, served, arrivals in zip(
                self._replays, block[:, :self._buffered].tolist(),
                arrivals_dt.tolist()):
            replay.extend(start_slot, served, arrivals)
        self._buffered = 0


class _CostSums:
    """The cost-only recorder: the four per-slot cost sums, nothing else.

    Fed by :meth:`StreamingBatchSimulator.time_avg_cost` in place of a
    :class:`StreamingAggregator`.  Its sums advance with the same
    elementwise ``+=`` in slot order, so they are bit-identical to the
    aggregator's; it keeps no extrema, no service buffer and no delay
    ledger.
    """

    def __init__(self, batch: int):
        self._sums = {name: np.zeros(batch) for name in _COSTS}

    def record(self, **values: np.ndarray) -> None:
        sums = self._sums
        for name in _COSTS:
            sums[name] += values[name]

    def flush_delays(self, start_slot: int,
                     arrivals_dt: np.ndarray) -> None:
        """Nothing to replay: a cost-only pass keeps no delay ledger."""


def _costs(sums: Mapping[str, np.ndarray], n_slots: int
           ) -> tuple[np.ndarray, np.ndarray]:
    """The ``total_cost`` and ``time_avg_cost`` columns of cost sums.

    Their one definition, shared by :func:`_fold` and the cost-only
    :meth:`StreamingBatchSimulator.time_avg_cost`.
    """
    total = (sums["cost_lt"] + sums["cost_rt"] + sums["cost_battery"]
             + sums["cost_waste"])
    return total, total / n_slots


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
    total, time_avg = _costs(sums, n_slots)
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
        "cost_lt": sums["cost_lt"],
        "cost_rt": sums["cost_rt"],
        "cost_battery": sums["cost_battery"],
        "cost_waste": sums["cost_waste"],
        "total_cost": total,
        "time_avg_cost": time_avg,
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
    makes batch == scalar exact).
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


class PhysicsWorkspace:
    """Buffers for the engine's per-slot physics resolution."""

    __slots__ = (
        "rate", "grid_headroom", "supply_headroom", "budget_left",
        "grt", "ta", "tb", "cost_rt", "sdt_request", "desired",
        "surplus", "need", "discharge_cap", "covered",
        "discharge_request", "sdt", "unserved", "served_ds",
        "charge_request", "accepted", "waste", "cost_battery",
        "cost_lt", "cost_waste", "cost_total", "renewable_used",
        "curtailed", "supply",
        "m1", "m2", "had_backlog", "surplus_branch", "full_cover",
        "served_whole", "covers_ds", "allowed", "not_allowed",
    )

    def __init__(self, n: int):
        for name in ("rate", "grid_headroom", "supply_headroom",
                     "budget_left", "grt", "ta", "tb", "cost_rt",
                     "sdt_request", "desired", "surplus", "need",
                     "discharge_cap", "covered", "discharge_request",
                     "sdt", "unserved", "served_ds", "charge_request",
                     "accepted", "waste", "cost_battery", "cost_lt",
                     "cost_waste", "cost_total", "renewable_used",
                     "curtailed", "supply"):
            setattr(self, name, np.empty(n))
        for name in ("m1", "m2", "had_backlog", "surplus_branch",
                     "full_cover", "served_whole", "covers_ds",
                     "allowed", "not_allowed"):
            setattr(self, name, np.empty(n, dtype=bool))


class _RunState:
    """Mutable physical state threaded through one batch run."""

    __slots__ = ("battery", "backlog", "cycles", "lt_ledger", "rt_ledger",
                 "recorder", "block")

    def __init__(self, battery: VecBattery, backlog: VecBacklog,
                 cycles: VecCycleLedger, lt_ledger: VecMarketLedger,
                 rt_ledger: VecMarketLedger, recorder, block: np.ndarray):
        self.battery = battery
        self.backlog = backlog
        self.cycles = cycles
        self.lt_ledger = lt_ledger
        self.rt_ledger = rt_ledger
        self.recorder = recorder
        self.block = block


class StreamingBatchSimulator:
    """Advances ``B`` scenarios through the DPSS physics in lockstep,
    chunk by chunk.

    All scenarios must share the two-timescale shape
    (``fine_slots_per_coarse``, ``num_coarse_slots``, ``slot_hours``);
    every *numeric* parameter — grid caps, battery, penalties, traces,
    per-slot feeder capacity — may differ per scenario.  ``controller``
    is a batch controller over all runs; ``None`` picks one from the
    runs' own controllers (see :func:`_default_controller`).

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
    of either; every window row is the run's own stream, bit for bit.
    """

    def __init__(self, runs: Sequence[StreamRunSpec],
                 controller: BatchController | None = None,
                 *, chunk_coarse: int = 4, telemetry=TELEMETRY_OFF,
                 faults=None):
        """Shape checks, controller selection, parameter stacking,
        outage-schedule validation and the trace cursor.

        ``telemetry`` is the collector every stage span lands in (a
        :class:`~repro.telemetry.Telemetry`, or the default
        :data:`~repro.telemetry.TELEMETRY_OFF`); it is handed to the
        default controller too.  Instrumentation only reads clocks, so
        records are bit-identical either way.
        """
        if not runs:
            raise ConfigurationError("need at least one run")
        self.runs = list(runs)
        systems = [run.system for run in self.runs]
        shapes = {(s.fine_slots_per_coarse, s.num_coarse_slots,
                   s.slot_hours) for s in systems}
        if len(shapes) > 1:
            raise HorizonMismatchError(
                f"batched systems must share (T, K, slot_hours), got "
                f"{sorted(shapes)}")
        self.systems = systems
        self._telemetry = telemetry
        self.controller = controller if controller is not None \
            else _default_controller(self.runs, telemetry=telemetry)

        self._n_slots = systems[0].horizon_slots
        self._t_slots = systems[0].fine_slots_per_coarse
        self._batch = len(self.runs)
        self._slot0 = 0
        self._coarse0 = 0
        self._work: PhysicsWorkspace | None = None
        self._p_grid = np.array([s.p_grid for s in systems])
        self._s_max = np.array([s.s_max for s in systems])
        self._s_dt_max = np.array([s.s_dt_max for s in systems])
        self._waste_penalty = np.array([s.waste_penalty for s in systems])
        # Hoisted boundary constant: the advance-block cap Pgrid * T.
        self._block_cap = self._p_grid * self._t_slots
        #: Validated outage schedules (``None``: static ``Pgrid``).
        self._capacities = [
            None if run.grid_capacity is None
            else checked_grid_capacity(run.grid_capacity, self._n_slots)
            for run in self.runs]

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
            observation = run.observation
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

    def _capacity_rows(self, start: int, stop: int) -> np.ndarray:
        """Per-slot feeder capacity for slots ``[start, stop)``: each
        run's outage schedule, or a static ``Pgrid`` row where it has
        none."""
        return np.stack([
            np.full(stop - start, system.p_grid) if capacity is None
            else capacity[start:stop]
            for capacity, system in zip(self._capacities, self.systems)])

    def _check_prices(self, start: int) -> None:
        """Vector twin of the markets' per-purchase price validation.

        The scalar markets raise on the first slot whose price falls
        outside ``[0, Pmax]``; the batch engine validates each chunk as
        it loads, from slot ``start`` on (same exception).  The
        offender reported is the first bad scenario, real-time before
        long-term within it.
        The inverted comparison also rejects NaN, exactly as the scalar
        ``0 <= price <= cap`` check does.
        """
        caps = np.array([system.p_max for system in self.systems])
        ranges = {}
        bad = {}
        for name, block in (
                ("real-time", self._true_prt[:, start - self._slot0:]),
                ("long-term", self._true_plt)):
            lows, highs = block.min(axis=1), block.max(axis=1)
            ranges[name] = (lows, highs)
            bad[name] = ~((lows >= 0) & (highs <= caps * (1 + 1e-9)))
        offenders = bad["real-time"] | bad["long-term"]
        if offenders.any():
            index = int(np.argmax(offenders))
            name = "real-time" if bad["real-time"][index] else "long-term"
            lows, highs = ranges[name]
            raise InfeasibleActionError(
                f"{name}: price outside [0, {self.systems[index].p_max}] "
                f"(observed range [{float(lows[index])}, "
                f"{float(highs[index])}])")

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
            with self._telemetry.span("observe"):
                observed = {
                    name: observer.observe_matrix(name, raw[name])
                    for name in ("demand_ds", "demand_dt", "renewable",
                                 "price_rt")}
                obs_tail = self._obs_tail
                self._obs_tail = {name: block[:, -t_slots:]
                                  for name, block in observed.items()}
                if obs_tail is not None:
                    observed = {
                        name: np.concatenate([obs_tail[name], block],
                                             axis=1)
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
                    # Same reshape-mean the true coarse prices come
                    # from, applied to the perturbed fine series —
                    # matching the whole-horizon reference's
                    # TraceSet.coarse_prices bit for bit.
                    self._obs_plt = obs_plt_fine.reshape(
                        self._batch, -1, t_slots).mean(axis=2)

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

        Each stage (chunk generation, observation derivation, the slot
        loop, delay replay, metric collection) is one span; the
        instrumentation reads clocks only, so streamed metrics are
        bit-identical with telemetry on or off.
        """
        tele = self._telemetry
        state = self._stream(StreamingAggregator(self._batch))
        aggregator = state.recorder
        with tele.span("collect"):
            block = _fold(
                aggregator,
                [replay.stats() for replay in aggregator._replays],
                controller_name=self.controller.names,
                n_slots=self._n_slots,
                battery_ops=state.cycles.operations,
                lt_energy=state.lt_ledger.energy,
                rt_energy=state.rt_ledger.energy, seed=self._seeds)
        tele.count("scenarios", self._batch)
        return block

    def time_avg_cost(self) -> np.ndarray:
        """Only :meth:`run`'s ``time_avg_cost`` column, bit for bit.

        The cost-only entry of the derived passes (the fleet's offline
        replay and robustness re-run), which read nothing else.  It
        runs :meth:`run`'s chunk and slot loop unchanged but records
        only the four cost sums: no delay ledger, no extrema, no
        service buffer and no :func:`_fold` — the column comes from the
        expression the fold uses (:func:`_costs`).
        """
        state = self._stream(_CostSums(self._batch))
        return _costs(state.recorder._sums, self._n_slots)[1]

    def _stream(self, recorder) -> _RunState:
        """Advance the batch over the horizon, feeding ``recorder``."""
        tele = self._telemetry
        faults = self._faults
        fire_slots = faults is not None and (
            faults.active("slot_loop") or faults.active("plan"))
        # Fresh observation cursors per run: carry state (dropout
        # holds, drift walks, delay buffers) restarts at the horizon,
        # so replaying the simulator is deterministic.
        if any(spec is not None for spec in self._observations):
            self._observer = BatchObserver(self._observations,
                                           self._trace_source.rows)
        else:
            self._observer = None
        self._obs_tail = None
        state = self._begin_run(recorder)
        tail: dict[str, np.ndarray] | None = None
        for start in range(0, self._n_slots, self._chunk_slots):
            stop = min(start + self._chunk_slots, self._n_slots)
            with tele.span("traces"):
                # Opening the cursor (the kernel lanes' RNG minting, or
                # the array lanes' materialization) is trace work, so
                # it counts under the first chunk's span.
                if start == 0:
                    cursor = self._trace_source.open()
                tail = self._load_chunk(start, stop, cursor, tail)
            tele.count("chunks")
            with tele.span("slot_loop"):
                for slot in range(start, stop):
                    if fire_slots:
                        faults.fire("plan" if slot % self._t_slots == 0
                                    else "slot_loop", slot=slot)
                    self._advance_slot(slot, state)
            tele.count("slots", stop - start)
            with tele.span("delay_replay"):
                state.recorder.flush_delays(
                    start, self._true_ddt[:, start - self._slot0:])
        return state

    def _begin_run(self, recorder) -> _RunState:
        """Allocate the physical state and open the horizon.

        ``recorder`` is the per-slot sink ``_step_physics`` writes to.
        """
        systems = self.systems
        batch = self._batch
        state = _RunState(
            battery=VecBattery(
                b_min=[s.b_min for s in systems],
                b_max=[s.b_max for s in systems],
                b_charge_max=[s.b_charge_max for s in systems],
                b_discharge_max=[s.b_discharge_max for s in systems],
                eta_c=[s.eta_c for s in systems],
                eta_d=[s.eta_d for s in systems],
                initial=[s.initial_battery for s in systems],
                n=batch),
            backlog=VecBacklog(batch),
            cycles=VecCycleLedger(
                op_cost=[s.battery_op_cost for s in systems],
                budgets=[s.cycle_budget for s in systems], n=batch),
            lt_ledger=VecMarketLedger(batch),
            rt_ledger=VecMarketLedger(batch),
            recorder=recorder,
            block=np.zeros(batch))
        # One slot workspace per run (per shard): the physics hot path
        # reuses these buffers every fine slot instead of allocating.
        self._work = PhysicsWorkspace(batch)
        self.controller.begin_horizon(systems)
        return state

    def _advance_slot(self, slot: int, state: _RunState) -> None:
        """One fine slot for the whole batch: plan, decide, step.

        ``plan``, ``real_time`` and ``physics`` are one span each; the
        instrumentation never touches numeric state (records are
        bit-identical on/off).
        """
        t_slots = self._t_slots
        battery, backlog, cycles = state.battery, state.backlog, state.cycles
        coarse = slot // t_slots
        tele = self._telemetry
        w = self._work

        if slot % t_slots == 0:
            with tele.span("plan"):
                gbef = np.asarray(
                    self.controller.plan_long_term(
                        self._coarse_observations(coarse, slot, battery,
                                                  backlog, cycles)),
                    dtype=float)
                state.block = np.minimum(np.maximum(0.0, gbef),
                                         self._block_cap)
                # cost_lt / m1 are scratch here: this slot's physics
                # rewrites both before reading them.
                state.lt_ledger.record(
                    state.block, self._true_plt[:, coarse - self._coarse0],
                    w.cost_lt, w.m1)
            tele.count("boundaries")

        cap = self._capacity[:, slot - self._slot0]
        observed_r = self._obs_ren[:, slot - self._slot0]
        rate = np.divide(state.block, t_slots, out=w.rate)
        np.minimum(rate, cap, out=rate)
        grid_headroom = np.subtract(cap, rate, out=w.grid_headroom)
        np.maximum(0.0, grid_headroom, out=grid_headroom)
        supply_headroom = np.subtract(self._s_max, rate,
                                      out=w.supply_headroom)
        np.subtract(supply_headroom, observed_r, out=supply_headroom)
        np.maximum(0.0, supply_headroom, out=supply_headroom)
        budget_left = cycles.remaining_into(w.budget_left)

        with tele.span("real_time"):
            grt_request, gamma = self.controller.real_time(
                BatchFineObservation(
                    fine_slot=slot,
                    coarse_index=coarse,
                    price_rt=self._obs_prt[:, slot - self._slot0],
                    demand_ds=self._obs_dds[:, slot - self._slot0],
                    demand_dt=self._obs_ddt[:, slot - self._slot0],
                    renewable=observed_r,
                    battery_level=battery.level,
                    backlog=backlog.backlog,
                    long_term_rate=rate,
                    grid_headroom=grid_headroom,
                    supply_headroom=supply_headroom,
                    cycle_budget_left=budget_left,
                ))
        grt_request = np.asarray(grt_request, dtype=float)
        gamma = np.asarray(gamma, dtype=float)
        np.less(grt_request, 0, out=w.m1)
        bad_grt = bool(w.m1.any())
        np.less(gamma, 0, out=w.m1)
        np.greater(gamma, 1, out=w.m2)
        np.logical_or(w.m1, w.m2, out=w.m1)
        bad_gamma = bool(w.m1.any())
        if bad_grt:
            worst = float(grt_request.min())
            raise InfeasibleActionError(
                f"real-time purchase must be >= 0, got {worst}")
        if bad_gamma:
            raise InfeasibleActionError(
                f"gamma must be in [0, 1], got "
                f"[{float(gamma.min())}, {float(gamma.max())}]")

        with tele.span("physics"):
            self._step_physics(slot, coarse, rate, grt_request, gamma,
                               battery, backlog, cycles, grid_headroom,
                               state.rt_ledger, state.recorder)

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    @staticmethod
    def _window_mean(block: np.ndarray) -> np.ndarray:
        """Column-sequential window means, one per scenario.

        Accumulates in slot order so every scenario's mean applies the
        exact IEEE-754 additions of the scalar engine's
        ``sum(profile) / len(profile)``.
        """
        total = np.zeros(block.shape[0])
        for column in range(block.shape[1]):
            total += block[:, column]
        return total / block.shape[1]

    def _coarse_observations(self, coarse: int, slot: int,
                             battery: VecBattery, backlog: VecBacklog,
                             cycles: VecCycleLedger
                             ) -> BatchCoarseObservation:
        """Batch twin of ``Simulator._plan``'s observation, one slice.

        The planner's lookback window is the previous coarse window
        (the boundary slot itself at the very first boundary).  Past
        the first window the ``T``-slot tail *must* be resident: the
        chunk loader prepends it to every chunk, and a window that
        arrives without it would make ``local - t_slots`` negative —
        silently wrapping the slice to the wrong profile — so that
        condition raises instead.
        """
        t_slots = self._t_slots
        local = slot - self._slot0
        if slot >= t_slots:
            if local < t_slots:
                raise HorizonMismatchError(
                    f"planning at slot {slot} needs a {t_slots}-slot "
                    f"lookback but the resident trace window starts at "
                    f"slot {self._slot0} (only {local} slots of "
                    f"history); the chunk loader must carry the "
                    f"T-slot planning tail")
            window = slice(local - t_slots, local)
        else:
            window = slice(local, local + 1)
        profile_ds = self._obs_dds[:, window]
        profile_dt = self._obs_ddt[:, window]
        profile_r = self._obs_ren[:, window]
        profile_p = self._obs_prt[:, window]
        return BatchCoarseObservation(
            coarse_index=coarse,
            fine_slot=slot,
            price_lt=self._obs_plt[:, coarse - self._coarse0].copy(),
            demand_ds=self._window_mean(profile_ds),
            demand_dt=self._window_mean(profile_dt),
            renewable=self._window_mean(profile_r),
            battery_level=battery.level.copy(),
            backlog=backlog.backlog.copy(),
            cycle_budget_left=cycles.remaining,
            profile_demand_ds=profile_ds,
            profile_demand_dt=profile_dt,
            profile_renewable=profile_r,
            profile_price_rt=profile_p,
        )

    def _step_physics(self, slot: int, coarse: int, rate: np.ndarray,
                      grt_request: np.ndarray, gamma: np.ndarray,
                      battery: VecBattery, backlog: VecBacklog,
                      cycles: VecCycleLedger, grid_headroom: np.ndarray,
                      rt_ledger: VecMarketLedger,
                      recorder) -> None:
        """Vector twin of ``Simulator._step_physics`` (one slot).

        Every temporary lands in the run's :class:`PhysicsWorkspace`
        via the scalar engine's elementwise IEEE-754 operations, in the
        same order; each scalar ``if``/``else`` becomes a fill plus a
        masked ``copyto`` of the identical branch values.
        """
        w = self._work
        local = slot - self._slot0
        dds = self._true_dds[:, local]
        ddt = self._true_ddt[:, local]
        renewable = self._true_ren[:, local]
        prt = self._true_prt[:, local]
        plt = self._true_plt[:, coarse - self._coarse0]

        # Clamp the real-time purchase to the feeder and supply caps.
        np.minimum(grt_request, grid_headroom, out=w.grt)
        np.subtract(self._s_max, rate, out=w.ta)
        np.subtract(w.ta, renewable, out=w.ta)
        np.maximum(0.0, w.ta, out=w.ta)
        np.minimum(w.grt, w.ta, out=w.grt)
        cost_rt = rt_ledger.record(w.grt, prt, w.cost_rt, w.m1)

        # Renewable curtailment if the bus is over the supply cap.
        np.subtract(self._s_max, rate, out=w.ta)
        np.subtract(w.ta, w.grt, out=w.ta)
        np.maximum(0.0, w.ta, out=w.ta)
        np.minimum(renewable, w.ta, out=w.renewable_used)
        np.subtract(renewable, w.renewable_used, out=w.curtailed)
        np.add(rate, w.grt, out=w.supply)
        np.add(w.supply, w.renewable_used, out=w.supply)

        # Service resolution: delay-sensitive first.
        backlog.has_backlog(w.had_backlog)
        np.multiply(gamma, backlog.backlog, out=w.sdt_request)
        np.minimum(w.sdt_request, self._s_dt_max, out=w.sdt_request)
        cycles.remaining_into(w.ta)
        np.equal(w.ta, 0.0, out=w.m1)
        np.logical_not(w.m1, out=w.allowed)

        np.add(dds, w.sdt_request, out=w.desired)
        np.subtract(w.desired, 1e-12, out=w.ta)
        np.greater_equal(w.supply, w.ta, out=w.surplus_branch)

        np.subtract(w.supply, w.desired, out=w.surplus)
        np.maximum(0.0, w.surplus, out=w.surplus)
        np.less(w.surplus, 1e-12, out=w.m1)
        np.copyto(w.surplus, 0.0, where=w.m1)
        np.greater(w.surplus, 0.0, out=w.m1)
        np.logical_and(w.surplus_branch, w.allowed, out=w.m2)
        np.logical_and(w.m2, w.m1, out=w.m2)
        np.copyto(w.charge_request, 0.0)
        np.copyto(w.charge_request, w.surplus, where=w.m2)

        np.subtract(w.desired, w.supply, out=w.need)
        battery.available(w.discharge_cap)
        np.logical_not(w.allowed, out=w.not_allowed)
        np.copyto(w.discharge_cap, 0.0, where=w.not_allowed)
        np.greater_equal(w.discharge_cap, w.need, out=w.full_cover)
        np.add(w.supply, w.discharge_cap, out=w.covered)
        np.copyto(w.discharge_request, w.discharge_cap)
        np.copyto(w.discharge_request, w.need, where=w.full_cover)
        np.copyto(w.discharge_request, 0.0, where=w.surplus_branch)
        np.logical_or(w.surplus_branch, w.full_cover,
                      out=w.served_whole)
        np.greater_equal(w.covered, dds, out=w.covers_ds)
        np.subtract(w.covered, dds, out=w.ta)
        np.copyto(w.sdt, 0.0)
        np.copyto(w.sdt, w.ta, where=w.covers_ds)
        np.copyto(w.sdt, w.sdt_request, where=w.served_whole)
        np.subtract(dds, w.covered, out=w.ta)
        np.copyto(w.unserved, 0.0)
        np.logical_or(w.covers_ds, w.served_whole, out=w.m1)
        np.logical_not(w.m1, out=w.m1)
        np.copyto(w.unserved, w.ta, where=w.m1)

        # Battery settlement: the two requests are elementwise disjoint
        # and zero requests leave levels bit-identical (see VecBattery).
        charge = battery.settle(w.charge_request, w.discharge_request,
                                w.accepted, w.tb)
        discharge = w.discharge_request
        np.subtract(w.surplus, charge, out=w.ta)
        np.copyto(w.waste, 0.0)
        np.copyto(w.waste, w.ta, where=w.surplus_branch)

        cost_battery = cycles.record(charge, discharge, w.cost_battery,
                                     w.m1, w.m2)
        backlog.step(w.sdt, ddt, w.ta)

        np.multiply(rate, plt, out=w.cost_lt)
        np.multiply(w.waste, self._waste_penalty, out=w.cost_waste)
        np.add(w.cost_lt, cost_rt, out=w.cost_total)
        np.add(w.cost_total, cost_battery, out=w.cost_total)
        np.add(w.cost_total, w.cost_waste, out=w.cost_total)
        np.subtract(dds, w.unserved, out=w.served_ds)
        recorder.record(
            cost_lt=w.cost_lt,
            cost_rt=cost_rt,
            cost_battery=cost_battery,
            cost_waste=w.cost_waste,
            cost_total=w.cost_total,
            gbef_rate=rate,
            grt=w.grt,
            renewable_used=w.renewable_used,
            renewable_curtailed=w.curtailed,
            served_ds=w.served_ds,
            served_dt=w.sdt,
            unserved_ds=w.unserved,
            charge=charge,
            discharge=discharge,
            battery_level=battery.level,
            waste=w.waste,
            backlog=backlog.backlog,
            gamma=gamma,
        )
        self.controller.end_slot(BatchSlotFeedback(
            fine_slot=slot,
            served_dt=w.sdt,
            served_ds=w.served_ds,
            unserved_ds=w.unserved,
            charge=charge,
            discharge=discharge,
            waste=w.waste,
            battery_level=battery.level,
            backlog=backlog.backlog,
            had_backlog=w.had_backlog,
        ))


# ----------------------------------------------------------------------
# Controller selection
# ----------------------------------------------------------------------


def _default_controller(runs: Sequence[StreamRunSpec],
                        telemetry=TELEMETRY_OFF) -> BatchController:
    """Pick the vectorized controller when every run is SmartDPSS.

    The vectorized controller only reads each instance's config and
    name, so runs sharing one instance need no copies there.
    ``telemetry`` hands the engine's collector to it so its P4/P5
    solves land in the same breakdown.
    """
    controllers = [run.controller for run in runs]
    if all(type(c) is SmartDPSS for c in controllers):
        return VecSmartDPSS(controllers, telemetry=telemetry)
    return ScalarControllerBatch(_distinct_controllers(runs))


def _distinct_controllers(runs: Sequence[StreamRunSpec]
                          ) -> list[Controller]:
    """Per-run controller instances, deep-copying shared objects.

    Sequential scalar runs may legally reuse one controller object
    (``begin_horizon`` resets it each time); in a batch all scenarios
    are live simultaneously, so duplicates get their own copies.
    """
    seen: set[int] = set()
    controllers = []
    for run in runs:
        controller = run.controller
        if id(controller) in seen:
            controller = deepcopy(controller)
        seen.add(id(controller))
        controllers.append(controller)
    return controllers
