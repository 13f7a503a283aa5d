"""Vectorized batch simulation engine and the multi-run front door.

The scalar :class:`~repro.sim.engine.Simulator` drives one controller
through the per-slot physics in Python; every figure of the paper is a
*sweep* of such runs (values × seeds), so the fleet-level hot path is
``B`` independent scenarios advancing through identical physics.
:class:`BatchSimulator` moves all of them per slot in ``(B,)`` array
form — eq.-4 supply-demand balance, battery SOC dynamics, backlog
queue and billing — with controllers plugged in through a batch
protocol:

* :class:`~repro.core.smartdpss_vec.VecSmartDPSS` — SmartDPSS with the
  P5 hot path fully vectorized;
* :class:`ScalarControllerBatch` — adapter running any scalar
  :class:`~repro.core.interfaces.Controller` per scenario while the
  physics stays vectorized.

:func:`simulate_many` is the front door used by the sweep runner and
the experiment modules: it takes ordinary per-run specs, groups the
compatible ones (same two-timescale shape) into batches, picks the
vectorized controller where possible, and falls back to scalar
simulation otherwise — callers never need to know which engine ran.

The per-slot physics runs in a :class:`PhysicsWorkspace` built once
per run: every temporary is a preallocated ``(B,)`` buffer written with
``out=`` / ``copyto`` ufunc calls, so the slot loop allocates nothing.

Exactness contract: a batch run is bit-for-bit identical to the ``B``
scalar runs it replaces (same IEEE-754 operations in the same order;
see :mod:`repro.sim.vecstate`), enforced slot-for-slot by
``tests/equivalence/``.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.config.system import SystemConfig
from repro.core.interfaces import (
    BatchCoarseObservation,
    Controller,
    FineObservation,
    SlotFeedback,
)
from repro.core.smartdpss import SmartDPSS
from repro.core.smartdpss_vec import VecSmartDPSS
from repro.exceptions import (
    ConfigurationError,
    HorizonMismatchError,
    InfeasibleActionError,
)
from repro.sim.engine import Simulator, checked_grid_capacity
from repro.sim.results import SimulationResult
from repro.sim.vecstate import (
    BatchRecorder,
    VecBacklog,
    VecBattery,
    VecCycleLedger,
    VecMarketLedger,
    replay_delay_stats,
)
from repro.telemetry.core import TELEMETRY_OFF
from repro.traces.base import TraceSet

#: Executor names accepted by :func:`simulate_many` / ``Sweep.run``.
EXECUTORS = ("serial", "batch")


@dataclass(frozen=True)
class RunSpec:
    """One simulation request, as the scalar ``Simulator`` takes it."""

    system: SystemConfig
    controller: Controller
    traces: TraceSet
    observed: TraceSet | None = None
    grid_capacity: object = None


@dataclass
class BatchFineObservation:
    """Array form of :class:`~repro.core.interfaces.FineObservation`.

    ``cycle_budget_left`` uses ``+inf`` for "unconstrained" (the scalar
    protocol's ``None``); the scalar-facing adapter converts back.
    """

    fine_slot: int
    coarse_index: int
    price_rt: np.ndarray
    demand_ds: np.ndarray
    demand_dt: np.ndarray
    renewable: np.ndarray
    battery_level: np.ndarray
    backlog: np.ndarray
    long_term_rate: np.ndarray
    grid_headroom: np.ndarray
    supply_headroom: np.ndarray
    cycle_budget_left: np.ndarray


@dataclass
class BatchSlotFeedback:
    """Array form of :class:`~repro.core.interfaces.SlotFeedback`."""

    fine_slot: int
    served_dt: np.ndarray
    served_ds: np.ndarray
    unserved_ds: np.ndarray
    charge: np.ndarray
    discharge: np.ndarray
    waste: np.ndarray
    battery_level: np.ndarray
    backlog: np.ndarray
    had_backlog: np.ndarray


@runtime_checkable
class BatchController(Protocol):
    """What :class:`BatchSimulator` needs from a controller bundle."""

    @property
    def names(self) -> list[str]: ...

    def begin_horizon(self, systems: Sequence[SystemConfig]) -> None: ...

    def plan_long_term(self, obs: BatchCoarseObservation
                       ) -> np.ndarray: ...

    def real_time(self, obs: BatchFineObservation
                  ) -> tuple[np.ndarray, np.ndarray]: ...

    def end_slot(self, feedback: BatchSlotFeedback) -> None: ...


class ScalarControllerBatch:
    """Drives ``B`` scalar controllers inside the batch engine.

    The physics stays vectorized; only the policy calls loop, each one
    receiving the exact scalar observation records it would get from
    :class:`~repro.sim.engine.Simulator`.  This is the universal
    fallback that lets :func:`simulate_many` batch *any* mix of
    policies (baselines, user controllers) without a vectorized port.
    """

    def __init__(self, controllers: Sequence[Controller]):
        if not controllers:
            raise ConfigurationError("need at least one controller")
        self.controllers = list(controllers)

    @property
    def names(self) -> list[str]:
        return [controller.name for controller in self.controllers]

    def begin_horizon(self, systems: Sequence[SystemConfig]) -> None:
        for controller, system in zip(self.controllers, systems):
            controller.begin_horizon(system)

    def plan_long_term(self, obs: BatchCoarseObservation) -> np.ndarray:
        return np.array([
            float(controller.plan_long_term(obs.scalar(index)))
            for index, controller in enumerate(self.controllers)])

    @staticmethod
    def _budget_left(value: float) -> int | None:
        return None if np.isinf(value) else int(value)

    def real_time(self, obs: BatchFineObservation
                  ) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.controllers)
        grt = np.zeros(n)
        gamma = np.zeros(n)
        for index, controller in enumerate(self.controllers):
            decision = controller.real_time(FineObservation(
                fine_slot=obs.fine_slot,
                coarse_index=obs.coarse_index,
                price_rt=float(obs.price_rt[index]),
                demand_ds=float(obs.demand_ds[index]),
                demand_dt=float(obs.demand_dt[index]),
                renewable=float(obs.renewable[index]),
                battery_level=float(obs.battery_level[index]),
                backlog=float(obs.backlog[index]),
                long_term_rate=float(obs.long_term_rate[index]),
                grid_headroom=float(obs.grid_headroom[index]),
                supply_headroom=float(obs.supply_headroom[index]),
                cycle_budget_left=self._budget_left(
                    obs.cycle_budget_left[index]),
            ))
            grt[index] = decision.grt
            gamma[index] = decision.gamma
        return grt, gamma

    def end_slot(self, feedback: BatchSlotFeedback) -> None:
        for index, controller in enumerate(self.controllers):
            controller.end_slot(SlotFeedback(
                fine_slot=feedback.fine_slot,
                served_dt=float(feedback.served_dt[index]),
                served_ds=float(feedback.served_ds[index]),
                unserved_ds=float(feedback.unserved_ds[index]),
                charge=float(feedback.charge[index]),
                discharge=float(feedback.discharge[index]),
                waste=float(feedback.waste[index]),
                battery_level=float(feedback.battery_level[index]),
                backlog=float(feedback.backlog[index]),
                had_backlog=bool(feedback.had_backlog[index]),
            ))


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


class BatchSimulator:
    """Advances ``B`` scenarios through the DPSS physics in lockstep.

    All scenarios must share the two-timescale shape
    (``fine_slots_per_coarse``, ``num_coarse_slots``, ``slot_hours``);
    every *numeric* parameter — grid caps, battery, penalties, traces,
    per-slot feeder capacity — may differ per scenario.

    Trace columns are read through the window offsets ``_slot0`` /
    ``_coarse0`` (always zero here, where whole horizons are resident).
    The streaming engine (:mod:`repro.fleet.engine`) subclasses this,
    loading one chunk of trace columns at a time and advancing the
    offsets, so both engines execute the identical per-slot arithmetic.
    """

    def __init__(self, runs: Sequence[RunSpec],
                 controller: BatchController | None = None):
        self._init_group(runs, controller)
        n_slots = self._n_slots
        t_slots = self._t_slots
        systems = self.systems

        for run in self.runs:
            if run.traces.n_slots < n_slots:
                raise HorizonMismatchError(
                    f"traces cover {run.traces.n_slots} slots but the "
                    f"system horizon needs {n_slots}")
            observed = run.observed or run.traces
            if observed.n_slots != run.traces.n_slots:
                raise HorizonMismatchError(
                    f"observed traces cover {observed.n_slots} slots, "
                    f"true traces {run.traces.n_slots}")

        def stack(select) -> np.ndarray:
            return np.stack([np.asarray(select(run), dtype=float)[:n_slots]
                             for run in self.runs])

        self._true_dds = stack(lambda r: r.traces.demand_ds)
        self._true_ddt = stack(lambda r: r.traces.demand_dt)
        self._true_ren = stack(lambda r: r.traces.renewable)
        self._true_prt = stack(lambda r: r.traces.price_rt)
        self._obs_dds = stack(lambda r: self._observed(r).demand_ds)
        self._obs_ddt = stack(lambda r: self._observed(r).demand_dt)
        self._obs_ren = stack(lambda r: self._observed(r).renewable)
        self._obs_prt = stack(lambda r: self._observed(r).price_rt)

        k_slots = systems[0].num_coarse_slots
        self._true_plt = np.stack(
            [run.traces.coarse_prices(t_slots)[:k_slots]
             for run in self.runs])
        self._obs_plt = np.stack(
            [self._observed(run).coarse_prices(t_slots)[:k_slots]
             for run in self.runs])

        self._capacity = self._capacity_rows(0, self._n_slots)
        self._check_prices(0)

    def _init_group(self, runs: Sequence, controller,
                    telemetry=None) -> None:
        """Shape checks, controller selection, parameter stacking and
        outage-schedule validation.

        Shared with the streaming subclass, so it only relies on each
        run's ``system``, ``controller`` and ``grid_capacity``
        attributes — never on resident trace arrays.  ``telemetry``
        (``None`` = off) is the streamed subclass's
        :class:`~repro.telemetry.Telemetry`; instrumentation only reads
        clocks, so records are bit-identical either way.
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
        self._telemetry = telemetry if telemetry is not None \
            else TELEMETRY_OFF
        self.controller = controller if controller is not None \
            else _default_controller(self.runs, telemetry=self._telemetry)

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

    @staticmethod
    def _observed(run: RunSpec) -> TraceSet:
        return run.observed if run.observed is not None else run.traces

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
        outside ``[0, Pmax]``; the batch engines validate the resident
        window from slot ``start`` instead — the in-memory engine its
        whole horizon before slot 0, the streamed engine each chunk as
        it loads (same exception either way).  The offender reported is
        the first bad scenario, real-time before long-term within it.
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
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> list[SimulationResult]:
        """Simulate every scenario over the horizon, in lockstep."""
        state = self._begin_run()
        for slot in range(self._n_slots):
            self._advance_slot(slot, state)
        return self._finish_run(state)

    def _begin_run(self, recorder=None) -> _RunState:
        """Allocate the physical state and open the horizon.

        ``recorder`` is the per-slot sink; ``None`` makes the engine's
        own (:meth:`_make_recorder`).
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
            recorder=(self._make_recorder() if recorder is None
                      else recorder),
            block=np.zeros(batch))
        # One slot workspace per run (per shard): the physics hot path
        # reuses these buffers every fine slot instead of allocating.
        self._work = PhysicsWorkspace(batch)
        self.controller.begin_horizon(systems)
        return state

    def _make_recorder(self):
        """Per-slot sink fed by ``_step_physics`` (overridable)."""
        return BatchRecorder(self._batch, self._n_slots)

    def _advance_slot(self, slot: int, state: _RunState) -> None:
        """One fine slot for the whole batch: plan, decide, step.

        Timings are guarded on ``tele.enabled`` so the disabled cost
        is one attribute check per stage; the instrumentation never
        touches numeric state (records are bit-identical on/off).
        """
        t_slots = self._t_slots
        battery, backlog, cycles = state.battery, state.backlog, state.cycles
        coarse = slot // t_slots
        tele = self._telemetry
        w = self._work

        if slot % t_slots == 0:
            t0 = tele.clock() if tele.enabled else 0.0
            gbef = np.asarray(
                self.controller.plan_long_term(
                    self._coarse_observations(coarse, slot, battery,
                                              backlog, cycles)),
                dtype=float)
            state.block = np.minimum(np.maximum(0.0, gbef),
                                     self._block_cap)
            # cost_lt / m1 are scratch here: this slot's physics rewrites
            # both before reading them.
            state.lt_ledger.record(
                state.block, self._true_plt[:, coarse - self._coarse0],
                w.cost_lt, w.m1)
            if tele.enabled:
                tele.add_time("plan", tele.clock() - t0)
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

        t0 = tele.clock() if tele.enabled else 0.0
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
        if tele.enabled:
            tele.add_time("real_time", tele.clock() - t0)
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

        t0 = tele.clock() if tele.enabled else 0.0
        self._step_physics(slot, coarse, rate, grt_request, gamma,
                           battery, backlog, cycles, grid_headroom,
                           state.rt_ledger, state.recorder)
        if tele.enabled:
            tele.add_time("physics", tele.clock() - t0)

    def _finish_run(self, state: _RunState):
        """Close the horizon and collect per-scenario outputs."""
        finalize = getattr(self.controller, "finalize", None)
        if finalize is not None:
            finalize()
        return self._collect(state.recorder, state.cycles,
                             state.lt_ledger, state.rt_ledger)

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
        streaming engine prepends it to every chunk, and a window that
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
                      recorder: BatchRecorder) -> None:
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

    def _collect(self, recorder: BatchRecorder, cycles: VecCycleLedger,
                 lt_ledger: VecMarketLedger, rt_ledger: VecMarketLedger
                 ) -> list[SimulationResult]:
        names = self.controller.names
        served_dt = recorder.series("served_dt")
        results = []
        for index, run in enumerate(self.runs):
            observed = self._observed(run)
            results.append(SimulationResult(
                controller_name=names[index],
                system=self.systems[index],
                series=recorder.scenario_dict(index),
                delay_stats=replay_delay_stats(
                    served_dt[index], self._true_ddt[index]),
                battery_operations=int(cycles.operations[index]),
                lt_energy=float(lt_ledger.energy[index]),
                rt_energy=float(rt_ledger.energy[index]),
                meta={"traces": dict(run.traces.meta),
                      "observed": dict(observed.meta)},
            ))
        return results


# ----------------------------------------------------------------------
# Grouping front door
# ----------------------------------------------------------------------


def _default_controller(runs: Sequence[RunSpec],
                        telemetry=None) -> BatchController:
    """Pick the vectorized controller when every run is SmartDPSS.

    ``telemetry`` hands the engine's collector to the vectorized
    controller so its P4/P5 solves land in the same breakdown.
    """
    controllers = _distinct_controllers(runs)
    if all(type(c) is SmartDPSS for c in controllers):
        return VecSmartDPSS(controllers, telemetry=telemetry)
    return ScalarControllerBatch(controllers)


def _distinct_controllers(runs: Sequence[RunSpec]) -> list[Controller]:
    """Per-run controller instances, deep-copying shared objects.

    Scalar sweeps may legally reuse one controller object across runs
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


def _batchable_smartdpss(run: RunSpec) -> bool:
    return type(run.controller) is SmartDPSS


def _group_key(run: RunSpec):
    system = run.system
    shape = (system.fine_slots_per_coarse, system.num_coarse_slots,
             system.slot_hours)
    if _batchable_smartdpss(run):
        return (*shape, "smartdpss", run.controller.config.objective_mode)
    return (*shape, "scalar", None)


def _run_spec_scalar(spec: RunSpec) -> SimulationResult:
    """One run on the scalar reference engine."""
    return Simulator(spec.system, spec.controller, spec.traces,
                     observed=spec.observed,
                     grid_capacity=spec.grid_capacity).run()


def simulate_many(runs: Sequence[RunSpec], executor: str = "batch"
                  ) -> list[SimulationResult]:
    """Run many simulations, returning results in input order.

    ``executor`` picks the strategy:

    * ``"batch"`` — group runs sharing a two-timescale shape and drive
      each group through :class:`BatchSimulator` (vectorized SmartDPSS
      where the whole group is SmartDPSS with one objective mode, the
      scalar-controller adapter otherwise; singleton groups just run
      scalar);
    * ``"serial"`` — the scalar :class:`Simulator`, one run at a time
      (the reference path the batch engine is tested against).

    Both are bit-identical.  For multi-core or beyond-RAM sweeps, see
    :class:`repro.fleet.FleetRunner`.
    """
    if executor not in EXECUTORS:
        raise ConfigurationError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}")
    runs = list(runs)
    if not runs:
        return []

    if executor == "serial":
        return [_run_spec_scalar(run) for run in runs]

    groups: dict[object, list[int]] = {}
    for index, run in enumerate(runs):
        groups.setdefault(_group_key(run), []).append(index)

    results: list[SimulationResult | None] = [None] * len(runs)
    for indices in groups.values():
        group = [runs[i] for i in indices]
        group_results = (BatchSimulator(group).run() if len(group) > 1
                         else [_run_spec_scalar(group[0])])
        for index, result in zip(indices, group_results):
            results[index] = result
    return results  # type: ignore[return-value]
