"""Sharded fleet execution: whole vectorized batches per worker.

:class:`FleetRunner` is the fleet front door and the library's one
multi-core path.  It takes declarative
:class:`~repro.fleet.spec.ScenarioSpec` fleets, groups batch-compatible
specs, splits every group into shards of at most ``batch_size``
scenarios, and runs each shard through one memory-bounded
:class:`~repro.fleet.engine.StreamingBatchSimulator` invocation.  With
``max_workers > 1`` shards ship to a process pool (each worker rebuilds
traces locally from the few-hundred-byte spec, so no trace arrays cross
the process boundary) and finished shards stream back incrementally
into the optional :class:`~repro.fleet.store.ResultStore`.
"""

from __future__ import annotations

import inspect
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace as dataclass_replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.baselines.offline import (
    OfflineOptimal,
    OfflinePlan,
    OfflinePlanBatch,
    solve_offline_plan_batch,
)
from repro.exceptions import (
    ConfigurationError,
    ShardTimeoutError,
    SolverError,
    TraceCorruptionError,
    WorkerCrashError,
)
from repro.fleet.engine import (
    ScenarioMetrics,
    StreamingBatchSimulator,
    StreamRunSpec,
)
from repro.fleet.faults import FaultPlan
from repro.fleet.observe import ObservationSpec, observation_from_mapping
from repro.fleet.spec import ORACLE_CONTROLLERS, ScenarioSpec
from repro.fleet.stream import ArrayTraceStream, BatchTraceStream
from repro.solvers import batch_lp
from repro.telemetry import (
    Telemetry,
    TelemetrySnapshot,
    build_manifest,
    monotonic,
)
from repro.traces.base import TraceBlock, TraceSet

#: Default scenarios per engine invocation (one vectorized batch).
#: 256 amortizes per-op ufunc dispatch ~4x better than the previous 64
#: while keeping shard memory trivial (O(B * chunk)); records are
#: independent of the shard size (every lane's arithmetic is
#: scenario-local), so this is purely a throughput knob.  Shards are
#: cut in trace-seed order, so a shard of a 20-value ``V`` sweep holds
#: ~13 seeds and builds one trace lane per seed.
DEFAULT_BATCH_SIZE = 256

#: Default coarse slots of trace data resident per scenario.
DEFAULT_CHUNK_COARSE = 4


def _split_shards(indices: Sequence[int], shard_size: int) -> list[list[int]]:
    """Split one group's indices into shards of at most ``shard_size``."""
    if shard_size < 1:
        raise ConfigurationError(
            f"shard size must be >= 1, got {shard_size}")
    return [list(indices[start:start + shard_size])
            for start in range(0, len(indices), shard_size)]


def _tear_last_line(path: Path) -> None:
    """Truncate ``path`` mid-way through its final line.

    The ``torn`` fault action: simulates a writer killed mid-append,
    leaving the partial-line state the store readers (and resume) must
    tolerate.  No-op on empty or single-character lines.
    """
    if not path.exists():
        return
    data = path.read_bytes()
    if not data:
        return
    body = data[:-1] if data.endswith(b"\n") else data
    cut = body.rfind(b"\n") + 1
    last = body[cut:]
    if len(last) < 2:
        return
    with path.open("rb+") as handle:
        handle.truncate(cut + len(last) // 2)


@dataclass(frozen=True)
class ShardOutcome:
    """One finished shard: input positions + per-scenario records.

    ``telemetry`` is the shard's
    :class:`~repro.telemetry.TelemetrySnapshot` as a plain dict
    (picklable across the process boundary), or ``None`` when the run
    was not instrumented.
    """

    indices: tuple[int, ...]
    records: tuple[dict, ...]
    elapsed_s: float
    telemetry: dict | None = None


@dataclass(frozen=True)
class RunProgress:
    """Cumulative run statistics handed to 4-argument progress
    callbacks after every finished shard."""

    scenarios_done: int      # executed so far (resumed specs excluded)
    scenarios_total: int     # to execute this run (resumed excluded)
    elapsed_s: float
    rate: float              # cumulative scenarios/s
    eta_s: float             # remaining scenarios at the current rate

    @classmethod
    def compute(cls, done: int, total: int,
                elapsed_s: float) -> "RunProgress":
        rate = done / elapsed_s if elapsed_s > 0 else 0.0
        remaining = max(0, total - done)
        eta = remaining / rate if rate > 0 else float("inf")
        return cls(scenarios_done=done, scenarios_total=total,
                   elapsed_s=elapsed_s, rate=rate, eta_s=eta)


def _progress_arity(progress: Callable) -> int:
    """3 for legacy ``(outcome, finished, total)`` callbacks, 4 when
    the callable also accepts the :class:`RunProgress` stats."""
    try:
        parameters = inspect.signature(progress).parameters.values()
    except (TypeError, ValueError):  # builtins without signatures
        return 3
    if any(p.kind == p.VAR_POSITIONAL for p in parameters):
        return 4
    positional = [p for p in parameters
                  if p.kind in (p.POSITIONAL_ONLY,
                                p.POSITIONAL_OR_KEYWORD)]
    return 4 if len(positional) >= 4 else 3


def _twin_lanes(specs: "list[ScenarioSpec]", systems: "list"
                ) -> "tuple[list[int], list[int]]":
    """Each spec's trace lane, and the first spec of every lane.

    Trace twins (equal :meth:`ScenarioSpec.trace_key`: the trace
    recipe, seed and the system fields generation reads) share one
    lane.
    """
    lanes: dict[tuple, int] = {}
    which: list[int] = []
    firsts: list[int] = []
    for index, (spec, system) in enumerate(zip(specs, systems)):
        lane = lanes.setdefault(spec.trace_key(system), len(firsts))
        if lane == len(firsts):
            firsts.append(index)
        which.append(lane)
    return which, firsts


def _at_position(error: TraceCorruptionError, position: int,
                 seed) -> TraceCorruptionError:
    """``error`` restated for the scenario at shard ``position``."""
    return TraceCorruptionError(
        f"{error} (scenario position {position}, seed {seed})",
        scenario=position, slot=error.slot, seed=seed)


def _materialize(streams: "list", firsts: "list[int]"
                 ) -> "list[TraceSet]":
    """Whole horizons of distinct trace sources (one per lane).

    When every source is a ``stream`` recipe, all of them come from one
    full-horizon :class:`BatchTraceStream` read — bit-identical to each
    stream's scalar ``materialize()`` by the kernel contract; any other
    recipe (``paper``, or a mix) materializes each source on its own.
    """
    batch = BatchTraceStream.for_streams(streams)
    if batch is None:
        return [stream.materialize() for stream in streams]
    try:
        block = batch.open().read(batch.n_slots)
    except TraceCorruptionError as error:  # the block's rows are lanes
        raise _at_position(error, firsts[error.scenario],
                           error.seed) from None
    return [block.scenario(b) for b in range(len(streams))]


def _relative_gap(cost: float, reference: float) -> float:
    """``cost``'s relative excess over ``reference`` (0 at a zero one)."""
    return ((cost - reference) / abs(reference)
            if abs(reference) > 0 else 0.0)


def _attach_offline_gap(systems: "list", traces_list: "list[TraceSet]",
                        block: dict, chunk_coarse: int,
                        telemetry=None, faults=None) -> None:
    """Add the offline-gap columns to one shard's metrics block.

    Solves the clairvoyant LP once per distinct trace realization —
    one representative per distinct ``(system, traces)`` pair, where
    trace twins share one :class:`TraceSet` object (see
    :func:`_run_spec_shard`) — through the batched structure-stamping
    path (one compiled structure per distinct system), and replays
    each distinct plan once through the engine's cost-only entry
    (:meth:`StreamingBatchSimulator.time_avg_cost`): the replay reads
    only the cost column, so it keeps no delay ledger, extrema or
    metrics fold.  Adds two whole columns: the replayed offline cost
    (``offline_cost``) and each scenario's relative gap against it
    (``offline_gap``).  Every instance is cold-solved, so a twin's
    plan and replay are bit-identical to solving its own.  The
    replayed cost is bit-identical to replaying each plan through the
    scalar engine (the equivalence tests pin this), so the gap column
    is an honest same-accounting comparison, not an LP-objective
    shortcut.

    Graceful degradation: an LP failure
    (:class:`~repro.exceptions.SolverError` — iteration limit,
    infeasible, unbounded) does not fail the shard.  The group falls
    back to per-realization solves, with the ``lp_solve`` fault site
    still firing per scenario, so one bad LP costs only its own
    scenarios: their entries of the ``offline_cost`` / ``offline_gap``
    columns stay ``None``, so their records omit both (the telemetry
    counter ``offline_degraded`` counts such scenarios).
    """
    tele = telemetry
    # system -> traces identity -> the scenarios sharing that pair.
    by_system: dict[object, dict[int, list[int]]] = {}
    for index, (system, traces) in enumerate(zip(systems, traces_list)):
        by_system.setdefault(system, {}).setdefault(
            id(traces), []).append(index)
    # (scenarios sharing one plan, the plan), replayed once each.
    solved: list[tuple[list[int], OfflinePlan]] = []
    degraded = 0
    t0 = tele.clock() if tele is not None and tele.enabled else 0.0
    for system, realizations in by_system.items():
        groups = list(realizations.values())
        try:
            if faults is not None:
                faults.fire("lp_solve", subset=[
                    i for members in groups for i in members])
            instances = TraceBlock.from_tracesets(
                [traces_list[members[0]] for members in groups])
            solved.extend(zip(groups, solve_offline_plan_batch(
                system, instances, telemetry=tele)))
        except SolverError:
            # The batch solve died; retry realization by realization,
            # firing per scenario so a failure is pinned to (and only
            # costs) its own scenario.
            for members in groups:
                healthy = []
                for i in members:
                    try:
                        if faults is not None:
                            faults.fire("lp_solve", subset=[i])
                        healthy.append(i)
                    except SolverError:
                        degraded += 1
                if not healthy:
                    continue
                try:
                    instances = TraceBlock.from_tracesets(
                        [traces_list[healthy[0]]])
                    solved.append((healthy, solve_offline_plan_batch(
                        system, instances, telemetry=tele)[0]))
                except SolverError:
                    degraded += len(healthy)
    if tele is not None and tele.enabled:
        tele.add_time("offline_lp", tele.clock() - t0)
        if degraded:
            tele.count("offline_degraded", degraded)
        t0 = tele.clock()
    offline: list[float | None] = [None] * len(systems)
    if solved:
        runs = [StreamRunSpec(
                    system=systems[members[0]],
                    controller=OfflineOptimal(None, plan=plan),
                    stream=ArrayTraceStream(traces_list[members[0]]))
                for members, plan in solved]
        # The replay engine is deliberately *not* instrumented: its
        # slot-loop time belongs to the single ``offline_replay`` stage,
        # not to the policy run's plan/real_time/physics breakdown.
        replayed = StreamingBatchSimulator(
            runs, controller=OfflinePlanBatch([plan for _, plan in solved]),
            chunk_coarse=chunk_coarse).time_avg_cost()
        for (members, _), cost in zip(solved, replayed.tolist()):
            for i in members:
                offline[i] = cost
    if tele is not None and tele.enabled:
        tele.add_time("offline_replay", tele.clock() - t0)
    block["offline_cost"] = offline
    block["offline_gap"] = [
        None if cost is None else _relative_gap(policy, cost)
        for policy, cost in zip(block["time_avg_cost"].tolist(), offline)]


def _attach_robustness(specs: "list[ScenarioSpec]",
                       runs: "list[StreamRunSpec]",
                       traces_list: "list[TraceSet | None]",
                       block: dict, *,
                       robustness: Mapping[str, object],
                       chunk_coarse: int, telemetry=None) -> None:
    """Add the paired-noisy columns to one shard's metrics block.

    Re-runs every scenario of the shard under the ``robustness``
    observation model (same traces, same seed, fresh controller) and
    adds two whole columns: the noisy cost (``noisy_cost``) and the
    relative degradation against the clean cost (``robustness_gap``)
    — the fleet-scale twin of the paper's Fig. 9 clean-vs-noisy
    comparison.  The re-run pays only for its column:

    * it reuses the shard's trace streams (replayable by contract), so
      it generates no traces with ``offline_gap`` on;
    * one :class:`ObservationSpec` serves every scenario with the same
      seed and price cap, so the ``V`` twins of a seed are observation
      twins on one trace lane and share one noise lane
      (:class:`~repro.fleet.observe.BatchObserver`): noise is drawn
      once per seed, not once per scenario;
    * it runs the engine's cost-only entry
      (:meth:`StreamingBatchSimulator.time_avg_cost`): no delay
      ledger, extrema or metrics fold.

    Like the offline replay, the noisy pass runs uninjected (no fault
    harness): it is a derived comparison column, not a second chance
    for chaos faults to fire.
    """
    tele = telemetry
    t0 = tele.clock() if tele is not None and tele.enabled else 0.0
    observations: dict[tuple, ObservationSpec] = {}
    noisy_runs = []
    for spec, run, traces in zip(specs, runs, traces_list):
        key = (spec.seed, run.system.p_max)
        observation = observations.get(key)
        if observation is None:
            observation = observations[key] = observation_from_mapping(
                robustness, default_seed=spec.seed,
                price_cap=run.system.p_max)
        noisy_runs.append(dataclass_replace(
            run, controller=spec.build_controller(traces),
            observation=observation))
    noisy_cost = StreamingBatchSimulator(
        noisy_runs, chunk_coarse=chunk_coarse).time_avg_cost()
    if tele is not None and tele.enabled:
        tele.add_time("robustness", tele.clock() - t0)
        tele.count("robustness_scenarios", len(specs))
    block["noisy_cost"] = noisy_cost
    block["robustness_gap"] = [
        _relative_gap(cost, clean) for cost, clean in zip(
            noisy_cost.tolist(), block["time_avg_cost"].tolist())]


def _record_head(spec: ScenarioSpec, **tags) -> dict:
    """The identifying head of a result or quarantine record.

    ``name``, ``value``, ``seed`` and ``controller``, then ``tags``
    (a result record's ``engine``), then ``spec`` and ``spec_hash``.
    ``spec`` is a fresh dict: records are handed to callers, and
    aliasing the runner's cached payload would let a mutated record
    corrupt an in-process re-run.
    """
    return {"name": spec.name, "value": spec.value, "seed": spec.seed,
            "controller": spec.controller_kind, **tags,
            "spec": spec.to_dict(), "spec_hash": spec.spec_hash()}


def _run_spec_shard(payload: dict) -> ShardOutcome:
    """Module-level worker: run one shard of serialized specs.

    Rebuilds every spec locally (system, controller, trace source) and
    advances the whole shard through one
    :class:`StreamingBatchSimulator` invocation, whose metrics block
    the optional-column steps extend column by column.  Returns
    JSON-ready records — a :func:`_record_head` plus the scenario's
    row of the block, encoded once by :meth:`ScenarioMetrics.rows` —
    so the parent can append them to the store without touching
    numpy state.

    Trace twins (equal :meth:`ScenarioSpec.trace_key`) share one trace
    source object, so the engine generates or loads their traces once
    (one lane) and copies the rows out per scenario; the telemetry
    counter ``trace_twins`` counts the shared scenarios.  Where
    something needs whole horizons up front — the offline-gap
    baseline, an oracle controller, or a ``paper`` recipe (materialized
    by construction) — they are built once per distinct trace
    realization (:func:`_materialize`), and the policy streams over
    :class:`ArrayTraceStream` views of them; the gap column then costs
    one compiled LP solve plus one vectorized replay per distinct trace
    realization, not a second trace generation.  Every other shard
    streams straight from its trace generators.

    With ``telemetry`` in the payload the shard owns a fresh
    :class:`~repro.telemetry.Telemetry` collector (explicitly passed
    down to the engine and controller — workers share nothing) and
    returns its snapshot on :attr:`ShardOutcome.telemetry`.

    With a ``fault_plan`` in the payload (chaos tests only), a
    :class:`~repro.fleet.faults.ShardFaults` view is bound from the
    parent-stamped per-scenario ``attempts`` counts and threaded into
    the engine and the offline-gap solver.  Payloads without fault
    keys skip the harness entirely — the disabled path costs one dict
    lookup per shard.
    """
    t0 = monotonic()
    specs = [ScenarioSpec.from_dict(data) for data in payload["specs"]]
    chunk_coarse = int(payload["chunk_coarse"])
    offline_gap = bool(payload.get("offline_gap", False))
    robustness = payload.get("robustness")
    tele = Telemetry() if payload.get("telemetry") else None
    faults = None
    if payload.get("fault_plan"):
        faults = FaultPlan.from_dict(payload["fault_plan"]).bind(
            [(spec.name, spec.seed) for spec in specs],
            payload.get("attempts"),
            in_worker=bool(payload.get("in_worker", False)))

    build_t0 = tele.clock() if tele is not None else 0.0
    systems = [spec.build_system() for spec in specs]
    observations = [spec.build_observation(system)
                    for spec, system in zip(specs, systems)]
    which, firsts = _twin_lanes(specs, systems)
    if tele is not None and len(firsts) < len(specs):
        tele.count("trace_twins", len(specs) - len(firsts))
    streams = []
    for i in firsts:
        try:  # a ``paper`` recipe materializes, and validates, here
            streams.append(specs[i].open_stream(systems[i]))
        except TraceCorruptionError as error:
            raise _at_position(error, i, specs[i].trace_seed) from None
    traces_list: list[TraceSet | None] = [None] * len(specs)
    if offline_gap or any(
            spec.trace_kind == "paper"
            or spec.controller_kind in ORACLE_CONTROLLERS
            for spec in specs):
        realizations = _materialize(streams, firsts)
        streams = [ArrayTraceStream(traces) for traces in realizations]
        traces_list = [realizations[lane] for lane in which]
    runs = [StreamRunSpec(
                system=system,
                controller=spec.build_controller(traces),
                stream=streams[lane],
                observation=observation)
            for spec, system, traces, observation, lane
            in zip(specs, systems, traces_list, observations, which)]
    if tele is not None:
        tele.add_time("build", tele.clock() - build_t0)
    block = StreamingBatchSimulator(
        runs, chunk_coarse=chunk_coarse, telemetry=tele,
        faults=faults).run()
    if offline_gap:
        _attach_offline_gap(systems, traces_list, block, chunk_coarse,
                            telemetry=tele, faults=faults)
    if robustness:
        _attach_robustness(specs, runs, traces_list, block,
                           robustness=robustness,
                           chunk_coarse=chunk_coarse, telemetry=tele)
    block["observation_rel_error"] = [
        None if observation is None else observation.rel_error
        for observation in observations]

    records = tuple(
        {
            **_record_head(spec, engine="stream"),
            **({"observation": observation.describe()}
               if observation is not None else {}),
            "metrics": metrics,
        }
        for spec, metrics, observation
        in zip(specs, ScenarioMetrics.rows(block), observations))
    elapsed = monotonic() - t0
    snapshot = None
    if tele is not None:
        tele.add_time("shard", elapsed)
        tele.count("shards")
        snapshot = tele.snapshot(process=True).as_dict()
    return ShardOutcome(indices=tuple(payload["indices"]),
                        records=records, elapsed_s=elapsed,
                        telemetry=snapshot)


class FleetRunner:
    """Runs a fleet of scenario specs with sharded vectorized batches.

    Parameters
    ----------
    specs:
        The fleet, in the order results should come back.
    batch_size:
        Maximum scenarios per engine invocation (and per worker task).
    chunk_coarse:
        Coarse slots of trace data resident per scenario in the engine.
    max_workers:
        ``None`` or ``<= 1`` runs shards in-process; larger values run
        them on a process pool of that size.
    store:
        Optional :class:`~repro.fleet.store.ResultStore`; finished
        shards append to it *incrementally*, so a long sweep's results
        survive interruption.
    resume:
        When a store is attached, skip every spec whose content hash
        (:meth:`~repro.fleet.spec.ScenarioSpec.spec_hash`) already has
        a stored record, serving the stored record instead of
        re-executing — interrupted sweeps resume from where they
        stopped.  ``False`` restores the old behavior (everything
        re-runs and re-appends; only useful to accumulate duplicate
        rows deliberately).
    offline_gap:
        Compute the clairvoyant offline baseline per scenario and add
        ``offline_cost`` / ``offline_gap`` columns to every record.
        Each shard solves the offline LP through the batched
        structure-stamping path and replays the plans through the
        vectorized engine, so the column costs roughly one small LP
        solve (plus one replay) per distinct trace realization on top
        of the policy run: trace twins — scenarios with the same
        generation inputs (:meth:`ScenarioSpec.trace_key`), such as a
        ``controller.v`` sweep over shared seeds — share one trace
        build per shard (telemetry counter ``trace_twins``), and twins
        that also share a system share one plan and replay.  Shards
        are planned in trace-seed order, so twins share a shard, and
        each realization is solved about once per fleet.
    telemetry:
        ``True`` instruments the run: every shard owns a
        :class:`~repro.telemetry.Telemetry` collector whose snapshot
        rides back on :attr:`ShardOutcome.telemetry`; the merged
        run-level :class:`~repro.telemetry.RunManifest` is exposed as
        :attr:`last_manifest` and appended to the store's
        ``manifest.jsonl`` sidecar.  Records are bit-identical with
        telemetry on or off (instrumentation only reads clocks), at
        roughly 1–2 % wall-clock cost when on and one attribute check
        per stage when off.
    max_retries:
        How many times a failing shard is re-run as-is (with bounded
        exponential backoff) before it is bisected; the retry budget
        applies independently to each bisection half.  ``0`` bisects
        immediately on the first failure.
    shard_timeout:
        Per-shard wall-clock budget in seconds (pool mode only —
        in-process shards cannot be preempted).  An expired shard's
        workers are terminated, the pool is respawned, and the shard
        enters the same retry/bisect/quarantine lifecycle as a crash.
    fail_fast:
        Restore the all-or-nothing behavior: the first shard failure
        aborts the run (after pool shutdown) instead of being retried.
    fault_plan:
        A :class:`~repro.fleet.faults.FaultPlan` (or its dict form)
        arming the chaos harness; ``None`` falls back to the
        ``REPRO_FAULT_PLAN`` environment variable, and an unset
        variable disarms the harness entirely (the production state).
    robustness:
        Arm the paired clean-vs-noisy robustness sweep.  A number is
        shorthand for ``{"kind": "uniform", "rel_error": <number>}``;
        a mapping selects any registered observation model (see
        :mod:`repro.fleet.observe`).  Every scenario is re-run under
        the model (same traces, fresh controller, noise seeded from
        the scenario seed) and its record gains ``noisy_cost`` and
        ``robustness_gap`` columns — the fleet-scale twin of the
        paper's Fig. 9 comparison, with the same optional-column
        discipline as ``offline_gap``.  The re-run is a cost-only
        engine pass per shard, and trace twins with one seed share one
        noise lane, so a ``controller.v`` sweep draws its noise once
        per seed.
    retry_quarantined:
        With a store and ``resume``, re-offer scenarios whose hash
        appears only in ``errors.jsonl`` (normally a quarantined
        scenario is treated as done — re-running it would re-fail).
    retry_backoff_s:
        Base of the exponential retry backoff (attempt ``k`` sleeps
        ``min(2.0, retry_backoff_s * 2**(k-1))`` seconds); ``0``
        disables sleeping (tests).

    After every :meth:`run`, :attr:`last_run_stats` holds the
    fault-tolerance counters (``retries`` / ``bisections`` /
    ``quarantined`` / ``pool_respawns`` plus executed/skipped counts);
    instrumented runs also fold them into the manifest counters.
    """

    def __init__(self, specs: Iterable[ScenarioSpec], *,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 chunk_coarse: int = DEFAULT_CHUNK_COARSE,
                 max_workers: int | None = None,
                 store=None, resume: bool = True,
                 offline_gap: bool = False,
                 telemetry: bool = False,
                 max_retries: int = 2,
                 shard_timeout: float | None = None,
                 fail_fast: bool = False,
                 fault_plan=None,
                 robustness=None,
                 retry_quarantined: bool = False,
                 retry_backoff_s: float = 0.05):
        self.specs = list(specs)
        if not self.specs:
            raise ConfigurationError("fleet has no scenarios")
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}")
        if chunk_coarse < 1:
            raise ConfigurationError(
                f"chunk_coarse must be >= 1, got {chunk_coarse}")
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1 (or None for in-process "
                f"execution), got {max_workers}")
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ConfigurationError(
                f"shard_timeout must be > 0 seconds, got {shard_timeout}")
        if retry_backoff_s < 0:
            raise ConfigurationError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        self.batch_size = batch_size
        self.chunk_coarse = chunk_coarse
        self.max_workers = max_workers
        self.store = store
        self.resume = resume
        self.offline_gap = offline_gap
        self.telemetry = bool(telemetry)
        self.max_retries = max_retries
        self.shard_timeout = shard_timeout
        self.fail_fast = fail_fast
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        elif isinstance(fault_plan, Mapping):
            fault_plan = FaultPlan.from_dict(fault_plan)
        self.fault_plan = fault_plan
        if robustness is None:
            self.robustness = None
        else:
            if isinstance(robustness, (int, float)) and not isinstance(
                    robustness, bool):
                robustness = {"kind": "uniform",
                              "rel_error": float(robustness)}
            elif isinstance(robustness, Mapping):
                robustness = dict(robustness)
            else:
                raise ConfigurationError(
                    "robustness must be a relative-error number or an "
                    f"observation mapping, got {robustness!r}")
            # Validate eagerly so a bad model name/param fails at
            # construction, not inside a worker mid-sweep.
            observation_from_mapping(robustness, default_seed=0)
            self.robustness = robustness
        self.retry_quarantined = retry_quarantined
        self.retry_backoff_s = retry_backoff_s
        #: Run-level telemetry of the most recent :meth:`run` (``None``
        #: until an instrumented run finishes).
        self.last_manifest = None
        self.last_telemetry: TelemetrySnapshot | None = None
        #: Fault-tolerance counters of the most recent :meth:`run`.
        self.last_run_stats: dict | None = None
        self._payloads: list[dict] | None = None

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _build_payloads(self, indices: Sequence[int]) -> list[dict]:
        """Group the given spec positions, split groups into payloads.

        Each group is ordered by trace seed before it is cut: positions
        sharing ``spec.trace_seed`` become adjacent, seeds in order of
        first appearance and positions in given order within a seed.
        Trace twins share a seed, so a ``controller.v`` sweep over
        shared seeds keeps each realization's twins together, split
        only where a shard boundary falls among them, and a shard
        builds, solves and replays each realization once.  The order is
        only a heuristic: the worker still decides lanes by the full
        :meth:`ScenarioSpec.trace_key` (:func:`_twin_lanes`), so equal
        seeds with different generation inputs never merge.  The
        planner reads the seed, not the key, which would build every
        spec's system and trace models.
        """
        groups: dict[tuple, dict[int, list[int]]] = {}
        for index in indices:
            spec = self.specs[index]
            groups.setdefault(spec.group_key(), {}).setdefault(
                spec.trace_seed, []).append(index)
        payloads = []
        for by_seed in groups.values():
            group = [i for bucket in by_seed.values() for i in bucket]
            for shard in _split_shards(group, self.batch_size):
                payloads.append({
                    "indices": shard,
                    "specs": [self.specs[i].to_dict() for i in shard],
                    "chunk_coarse": self.chunk_coarse,
                    "offline_gap": self.offline_gap,
                    "robustness": self.robustness,
                    "telemetry": self.telemetry,
                })
        return payloads

    def shards(self) -> list[dict]:
        """Group compatible specs, then split groups into payloads.

        The full plan (resumption skips are applied at :meth:`run`
        time, against the store's state *then*), in trace-seed order
        within each group (see :meth:`_build_payloads`).  The store
        receives each payload's records as it finishes, so
        ``results.jsonl`` follows shard order, not spec order;
        :meth:`run` still returns spec order, and resume keys on
        ``spec_hash``.  Deterministic in the immutable spec list, so it
        is computed once and cached — callers can inspect it before
        :meth:`run` without paying the planning pass twice.
        """
        if self._payloads is None:
            self._payloads = self._build_payloads(
                range(len(self.specs)))
        return self._payloads

    def _resume_index(self) -> dict[int, dict]:
        """Spec positions already satisfied by stored records.

        A hash present only in ``errors.jsonl`` counts as satisfied
        too — its quarantine record is served in place of a metrics
        record, since re-running a quarantined scenario would re-fail
        — unless ``retry_quarantined`` asks for another attempt.  A
        result record always wins over a quarantine record (a later
        successful retry clears the quarantine).
        """
        if self.store is None or not self.resume:
            return {}
        stored = self.store.latest_by_hash()
        quarantined = ({} if self.retry_quarantined
                       else self.store.quarantined_by_hash())
        if not stored and not quarantined:
            return {}
        skipped: dict[int, dict] = {}
        for index, spec in enumerate(self.specs):
            record = stored.get(spec.spec_hash())
            if record is None:
                record = quarantined.get(spec.spec_hash())
            if record is not None:
                skipped[index] = record
        return skipped

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _stamp(self, payload: dict, in_worker: bool,
               scenario_attempts: Mapping[int, int]) -> dict:
        """Arm a payload with the fault plan + current attempt counts.

        Called at submit time (attempt counts change between retries,
        which is what makes retried faults with ``times=N`` go quiet
        deterministically).  With no plan the payload passes through
        untouched — the disabled path adds zero keys and zero copies.
        """
        if self.fault_plan is None:
            return payload
        out = dict(payload)
        out["fault_plan"] = self.fault_plan.to_dict()
        out["attempts"] = [scenario_attempts.get(i, 0)
                           for i in payload["indices"]]
        out["in_worker"] = in_worker
        return out

    def _quarantine_record(self, index: int, error: BaseException,
                           attempts: int) -> dict:
        """The typed ``errors.jsonl`` record for one given-up scenario."""
        return {
            **_record_head(self.specs[index]),
            "quarantined": True,
            "error": {
                "type": type(error).__name__,
                "message": str(error),
                "site": getattr(error, "site", None),
                "attempts": attempts,
            },
        }

    def _failure_followup(self, payload: dict, error: Exception,
                          scenario_attempts: dict[int, int],
                          payload_attempts: dict[tuple, int],
                          counters: dict[str, int],
                          quarantine: Callable) -> list[dict]:
        """Decide what a failed shard becomes: retry, bisect halves,
        or a quarantined scenario.  Returns the payloads to enqueue.

        The retry budget (``max_retries``, with bounded exponential
        backoff) applies per distinct scenario set, so each bisection
        half gets its own budget; a single-scenario shard that
        exhausts its budget is the poisoned scenario — it is
        quarantined and the sweep moves on.  A
        :class:`TraceCorruptionError` already names its scenario, so
        it short-circuits the bisection and quarantines directly.
        """
        indices = list(payload["indices"])
        for index in indices:
            scenario_attempts[index] = scenario_attempts.get(index, 0) + 1
        if self.fail_fast:
            raise error
        if isinstance(error, TraceCorruptionError) \
                and error.scenario is not None \
                and 0 <= error.scenario < len(indices):
            poisoned = indices[error.scenario]
            quarantine(poisoned, error)
            rest = [i for i in indices if i != poisoned]
            return self._build_payloads(rest) if rest else []
        key = tuple(indices)
        attempt = payload_attempts.get(key, 0) + 1
        payload_attempts[key] = attempt
        if attempt <= self.max_retries:
            counters["retries"] += 1
            if self.retry_backoff_s > 0:
                time.sleep(min(2.0,
                               self.retry_backoff_s * 2 ** (attempt - 1)))
            return [payload]
        if len(indices) == 1:
            quarantine(indices[0], error)
            return []
        counters["bisections"] += 1
        mid = len(indices) // 2
        return (self._build_payloads(indices[:mid])
                + self._build_payloads(indices[mid:]))

    def run(self, progress: Callable | None = None) -> list[dict]:
        """Execute the fleet; returns records in spec order.

        The store receives them shard by shard, in shard order (see
        :meth:`shards`).  With a store and ``resume`` (the default),
        specs whose hash is already stored are *not* re-executed: their
        stored records are returned in place, and only the remaining
        specs are sharded and run, in trace-seed order again — an
        interrupted sweep picks up where it stopped at the cost of one
        store scan.  When nothing remains, the run starts no process
        pool and loads no LP solver.

        Failure semantics (unless ``fail_fast``): a shard exception,
        worker crash or shard timeout never aborts the run.  The shard
        is retried up to ``max_retries`` times with bounded
        exponential backoff, then bisected until the failure is pinned
        to a single scenario, which is quarantined — a typed record in
        the store's ``errors.jsonl`` sidecar (and in the returned
        list, flagged ``"quarantined": True``) — while every healthy
        scenario completes bit-identical to a fault-free run.

        ``progress`` (optional) is called after every finished shard.
        Legacy 3-argument callables get ``(outcome, finished_shards,
        total_shards)``; callables accepting a fourth positional
        argument additionally receive a :class:`RunProgress` with the
        cumulative scenarios/s rate and ETA.  Skipped shards never
        appear in it; retried/bisected shards extend the total.
        """
        run_t0 = monotonic()
        records: list[dict | None] = [None] * len(self.specs)
        skipped = self._resume_index()
        if skipped:
            for index, record in skipped.items():
                records[index] = dict(record)
            remaining = [i for i in range(len(self.specs))
                         if i not in skipped]
            payloads = self._build_payloads(remaining)
        else:
            payloads = self.shards()
        # Mutable across the retry loops (followup shards extend the
        # plan); shared with the pool loop by reference so progress
        # callbacks always see the live totals.
        plan = {"total": len(payloads),
                "to_execute": sum(len(p["indices"]) for p in payloads)}
        finished = 0
        executed = 0
        arity = _progress_arity(progress) if progress is not None else 0
        parent_tele = Telemetry() if self.telemetry else None
        shard_snapshots: list[TelemetrySnapshot] = []
        counters = {"retries": 0, "bisections": 0, "quarantined": 0,
                    "pool_respawns": 0}
        scenario_attempts: dict[int, int] = {}
        payload_attempts: dict[tuple, int] = {}
        caches_before = None
        if self.telemetry:
            from repro.caches import cache_stats

            caches_before = cache_stats()

        def quarantine(index: int, error: BaseException) -> None:
            counters["quarantined"] += 1
            record = self._quarantine_record(
                index, error, scenario_attempts.get(index, 0))
            records[index] = record
            plan["to_execute"] = max(0, plan["to_execute"] - 1)
            if self.store is not None:
                self.store.append_errors([record])

        def sink(outcome: ShardOutcome) -> None:
            nonlocal finished, executed
            torn = False
            if self.fault_plan is not None:
                shard_faults = self.fault_plan.bind(
                    [(self.specs[i].name, self.specs[i].seed)
                     for i in outcome.indices],
                    [scenario_attempts.get(i, 0)
                     for i in outcome.indices])
                shard_faults.fire("store_append")
                torn = (self.store is not None
                        and shard_faults.torn_append())
            finished += 1
            executed += len(outcome.indices)
            for index, record in zip(outcome.indices, outcome.records):
                records[index] = record
            if self.store is not None:
                if parent_tele is not None:
                    with parent_tele.span("store_append"):
                        self.store.append(outcome.records)
                else:
                    self.store.append(outcome.records)
                if torn:
                    _tear_last_line(self.store.path)
            if outcome.telemetry is not None:
                shard_snapshots.append(
                    TelemetrySnapshot.from_dict(outcome.telemetry))
            if progress is not None:
                if arity >= 4:
                    progress(outcome, finished, plan["total"],
                             RunProgress.compute(
                                 executed, plan["to_execute"],
                                 monotonic() - run_t0))
                else:
                    progress(outcome, finished, plan["total"])

        workers = self.max_workers
        # A fully resumed run has nothing to ship: no pool, no scipy.
        if workers is None or workers <= 1 or not payloads:
            workers = 1
            queue = deque(payloads)
            while queue:
                payload = queue.popleft()
                try:
                    sink(_run_spec_shard(
                        self._stamp(payload, False, scenario_attempts)))
                except Exception as error:
                    followup = self._failure_followup(
                        payload, error, scenario_attempts,
                        payload_attempts, counters, quarantine)
                    plan["total"] += len(followup)
                    queue.extendleft(reversed(followup))
        else:
            workers = min(workers, plan["total"])
            if self.offline_gap or any(
                    spec.controller_kind in ORACLE_CONTROLLERS
                    for spec in self.specs):
                # Forked workers inherit scipy instead of each
                # importing it on its first LP, on every run.
                batch_lp.load_scipy()
            self._run_pool(payloads, workers, sink, plan,
                           scenario_attempts, payload_attempts,
                           counters, quarantine)

        self.last_run_stats = {
            "executed": executed,
            "skipped": len(skipped),
            "shards": finished,
            **counters,
        }
        if parent_tele is not None:
            for name, value in counters.items():
                if value:
                    parent_tele.count(name, value)
            self._finish_manifest(parent_tele, shard_snapshots,
                                  workers, executed, len(skipped),
                                  plan["total"], caches_before,
                                  monotonic() - run_t0)
        return records  # type: ignore[return-value]

    def _run_pool(self, payloads: list[dict], workers: int,
                  sink: Callable, plan: dict,
                  scenario_attempts: dict[int, int],
                  payload_attempts: dict[tuple, int],
                  counters: dict[str, int],
                  quarantine: Callable) -> None:
        """The multi-worker loop: throttled submission, crash recovery.

        Submission is throttled to ``workers`` shards in flight so
        every submitted shard is actually *running* — which keeps
        per-shard deadlines honest (a shard queued inside the executor
        would burn its budget waiting for a process).

        Recovery paths:

        * a shard raising inside its worker surfaces through
          ``future.result()`` → normal retry/bisect/quarantine;
        * a dying worker breaks the whole executor
          (``BrokenProcessPool`` on *every* in-flight future, guilty
          or not) → surfaced failures are penalized, still-pending
          shards are requeued without an attempt penalty, and the
          pool is respawned;
        * an expired ``shard_timeout`` terminates the pool's processes
          (the executor cannot cancel a *running* task), penalizes
          the expired shards and requeues the innocent in-flight ones;
        * any ``BaseException`` (Ctrl-C, ``fail_fast`` re-raise) shuts
          the pool down with ``cancel_futures=True`` before
          propagating, so no orphan workers outlive the run.
        """
        queue = deque(payloads)
        pool = ProcessPoolExecutor(max_workers=workers)
        pending: dict = {}  # future -> (payload, deadline)

        def respawn() -> None:
            nonlocal pool
            pool.shutdown(wait=False, cancel_futures=True)
            pool = ProcessPoolExecutor(max_workers=workers)
            counters["pool_respawns"] += 1

        def handle_failure(payload: dict, error: Exception) -> None:
            followup = self._failure_followup(
                payload, error, scenario_attempts, payload_attempts,
                counters, quarantine)
            plan["total"] += len(followup)
            queue.extend(followup)

        try:
            while queue or pending:
                submit_broken = False
                while queue and len(pending) < workers:
                    payload = queue.popleft()
                    try:
                        future = pool.submit(
                            _run_spec_shard,
                            self._stamp(payload, True,
                                        scenario_attempts))
                    except BrokenProcessPool:
                        # The pool broke between wait rounds; the
                        # in-flight futures (if any) surface their own
                        # BrokenProcessPool below and trigger the
                        # respawn there.
                        queue.appendleft(payload)
                        submit_broken = True
                        break
                    deadline = (monotonic() + self.shard_timeout
                                if self.shard_timeout is not None
                                else None)
                    pending[future] = (payload, deadline)
                if submit_broken and not pending:
                    respawn()
                    continue
                timeout = None
                if self.shard_timeout is not None and pending:
                    timeout = max(0.0, min(
                        deadline for _, deadline in pending.values())
                        - monotonic())
                done, _ = wait(set(pending), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    payload, _ = pending.pop(future)
                    try:
                        sink(future.result())
                    except Exception as error:
                        if isinstance(error, BrokenProcessPool):
                            broken = True
                            error = WorkerCrashError(
                                f"worker process died mid-shard "
                                f"(scenarios {payload['indices']}): "
                                f"{error}")
                        handle_failure(payload, error)
                if broken:
                    # The executor is dead and every in-flight future
                    # fails with the same BrokenProcessPool regardless
                    # of guilt; requeue the not-yet-surfaced shards
                    # innocently (their records stay bit-identical
                    # either way) and respawn.
                    for payload, _ in pending.values():
                        queue.append(payload)
                    pending.clear()
                    respawn()
                elif not done and pending:
                    now = monotonic()
                    expired = [payload
                               for payload, deadline in pending.values()
                               if deadline is not None and deadline <= now]
                    if expired:
                        survivors = [
                            payload
                            for payload, deadline in pending.values()
                            if not (deadline is not None
                                    and deadline <= now)]
                        pending.clear()
                        for process in (getattr(pool, "_processes", None)
                                        or {}).values():
                            process.terminate()
                        for payload in expired:
                            handle_failure(payload, ShardTimeoutError(
                                f"shard over scenarios "
                                f"{payload['indices']} exceeded the "
                                f"{self.shard_timeout:g}s wall-clock "
                                f"budget"))
                        queue.extend(survivors)
                        respawn()
        except BaseException:
            # Ctrl-C (or a fail-fast re-raise) mid-sweep: cancel queued
            # shards, stop the pool without waiting for stragglers, and
            # propagate — no orphan workers survive the run.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()

    def _finish_manifest(self, parent_tele: Telemetry,
                         shard_snapshots: list[TelemetrySnapshot],
                         workers: int, executed: int, skipped: int,
                         shards: int, caches_before,
                         elapsed_s: float) -> None:
        """Merge shard snapshots into the run manifest and persist it."""
        from repro.caches import cache_stats

        merged = TelemetrySnapshot.merge_all(shard_snapshots).merge(
            parent_tele.snapshot(process=True))
        manifest = build_manifest(
            spec_hashes=[spec.spec_hash() for spec in self.specs],
            scenarios=len(self.specs),
            executed=executed,
            skipped=skipped,
            shards=shards,
            workers=workers,
            batch_size=self.batch_size,
            chunk_coarse=self.chunk_coarse,
            offline_gap=self.offline_gap,
            elapsed_s=elapsed_s,
            snapshot=merged,
            caches={"before": caches_before, "after": cache_stats()},
        )
        self.last_telemetry = merged
        self.last_manifest = manifest
        if self.store is not None:
            self.store.append_manifest(manifest.as_dict())
