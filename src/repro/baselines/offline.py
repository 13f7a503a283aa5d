"""Clairvoyant offline benchmark ``φopt`` (paper Section II-D).

The paper benchmarks SmartDPSS against an offline optimum computed with
full knowledge of demand, renewables and prices.  Its P2 construction
solves one LP per coarse slot; we solve the *joint* LP over the whole
horizon instead, which additionally co-optimizes the battery state
across coarse slots — a strictly stronger (cheaper or equal) benchmark,
so the online-to-offline gap we report is conservative.

Linear program
--------------
Variables per coarse slot ``k``: advance block ``g[k]``.  Per fine slot
``τ``: real-time purchase ``grt[τ]``, deferrable service ``sdt[τ]``,
charge ``brc[τ]``, discharge ``bdc[τ]``, waste ``w[τ]``; state
variables ``b[τ]`` (battery) and ``q[τ]`` (backlog) plus a cumulative
service counter for the deadline constraint.

    min  Σ_k g[k]·plt[k] + Σ_τ grt[τ]·prt[τ] + wp·Σ_τ w[τ]
         (+ proxy·Σ(brc+bdc), optional battery-wear linearization)

    s.t. g[k]/T + grt + r + bdc − brc − w = dds + sdt         (balance)
         g[k]/T + grt ≤ Pgrid                                  (eq. 5)
         b[τ+1] = b[τ] + ηc·brc − ηd·bdc,  Bmin ≤ b ≤ Bmax     (eq. 3/7)
         q[τ+1] = q[τ] − sdt + ddt,  sdt ≤ q                   (eq. 2)
         cumulative service ≥ arrivals older than the deadline (λmax)

The non-convex per-operation battery cost ``n(τ)·Cb`` is omitted from
the LP (an optional linear proxy is available); the replayed cost
through the simulation engine *does* include it, so reported offline
costs are honest.

Fleet scale
-----------
Only the objective (``plt``, ``prt``) and a few right-hand sides
(``dds − r``, ``ddt``, the deadline cumulative arrivals) depend on the
traces; every constraint coefficient and bound is a function of the
system configuration alone.  :class:`_OfflineStructure` therefore
compiles the LP once per ``(system, options)`` and solves each scenario
by stamping its numeric vectors, and :func:`solve_offline_plan_batch`
runs that loop over a fleet :class:`~repro.traces.base.TraceBlock`.
Scalar and batched entry points dispatch through the *same* compiled
solve, so their plans are bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.config.system import SystemConfig
from repro.core.interfaces import (
    CoarseObservation,
    Controller,
    FineObservation,
    RealTimeDecision,
)
from repro.exceptions import ConfigurationError
from repro.solvers.batch_lp import CompiledLp
from repro.solvers.linear_program import LpModel
from repro.telemetry.core import TELEMETRY_OFF
from repro.traces.base import TraceBlock, TraceSet

#: Default service deadline for deferrable demand in the offline LP.
DEFAULT_DEADLINE_SLOTS = 48

#: Column-count threshold below which the compiled structure uses the
#: in-process HiGHS configuration (presolve off — faster on small
#: instances, slower on long horizons).  Instances above the threshold
#: take the public ``linprog`` path with library defaults, which is
#: also the path the pinned golden metrics were produced through.
FAST_SOLVE_MAX_COLS = 500


def _validate_deadline(deadline_slots: int | None) -> int | None:
    """Check the deadline option once, loudly.

    ``None`` disables the deadline (an unconstrained LP is a legitimate
    benchmark variant, but only when asked for explicitly); an integer
    must allow at least one slot of slack, otherwise no feasible
    service schedule exists and the failure would surface as a
    confusing solver infeasibility.
    """
    if deadline_slots is None:
        return None
    if isinstance(deadline_slots, bool) or not isinstance(
            deadline_slots, (int, np.integer)):
        raise ConfigurationError(
            f"deadline_slots must be an int >= 1 or None, "
            f"got {deadline_slots!r}")
    if deadline_slots < 1:
        raise ConfigurationError(
            f"deadline_slots must be >= 1 (got {deadline_slots}); "
            f"pass None to disable the deadline constraint")
    return int(deadline_slots)


@dataclass(frozen=True)
class OfflinePlan:
    """Solved offline schedule (all arrays over the horizon)."""

    gbef: np.ndarray        # per coarse slot
    grt: np.ndarray         # per fine slot
    sdt: np.ndarray
    charge: np.ndarray
    discharge: np.ndarray
    waste: np.ndarray
    battery: np.ndarray     # length N+1
    backlog: np.ndarray     # length N+1
    lp_objective: float

    @property
    def rt_energy(self) -> float:
        """Total real-time purchases (Lemma 1 predicts ≈ 0)."""
        return float(self.grt.sum())


class _OfflineStructure:
    """The offline LP with trace numerics factored out.

    Builds the model once with zero in every trace-dependent position,
    compiles it, and records where each scenario's numbers go: the
    coarse-price and real-time-price cost columns, the balance and
    backlog equality right-hand sides, and the deadline inequality
    right-hand sides.  :meth:`solve` stamps one scenario's vectors and
    solves — every caller (scalar or batched) goes through this method
    with the same solver configuration, which is what makes the two
    entry points bit-identical.
    """

    def __init__(self, system: SystemConfig,
                 deadline_slots: int | None,
                 include_real_time: bool,
                 cycle_proxy_cost: float):
        n = system.horizon_slots
        t_slots = system.fine_slots_per_coarse
        k_slots = system.num_coarse_slots
        self.n = n
        self.t_slots = t_slots
        self.k_slots = k_slots
        # A deadline of >= n slots constrains nothing inside the
        # horizon, so the cumulative-service chain would be dead
        # weight; drop it entirely in that case.
        with_deadline = deadline_slots is not None and deadline_slots < n
        self.with_deadline = with_deadline
        self.deadline_slots = deadline_slots

        model = LpModel("offline-optimal")
        g = [model.add_var(f"g[{k}]", lb=0.0,
                           ub=system.p_grid * t_slots)
             for k in range(k_slots)]
        grt_ub = system.p_grid if include_real_time else 0.0
        grt = [model.add_var(f"grt[{i}]", lb=0.0, ub=grt_ub)
               for i in range(n)]
        sdt = [model.add_var(f"sdt[{i}]", lb=0.0, ub=system.s_dt_max)
               for i in range(n)]
        brc = [model.add_var(f"brc[{i}]", lb=0.0,
                             ub=system.b_charge_max,
                             cost=cycle_proxy_cost) for i in range(n)]
        bdc = [model.add_var(f"bdc[{i}]", lb=0.0,
                             ub=system.b_discharge_max,
                             cost=cycle_proxy_cost) for i in range(n)]
        waste = [model.add_var(f"w[{i}]", lb=0.0,
                               cost=system.waste_penalty)
                 for i in range(n)]
        battery = [model.add_var(f"b[{i}]", lb=system.b_min,
                                 ub=system.b_max) for i in range(n + 1)]
        backlog = [model.add_var(f"q[{i}]", lb=0.0)
                   for i in range(n + 1)]
        served_cum = ([model.add_var(f"S[{i}]", lb=0.0)
                       for i in range(n + 1)] if with_deadline else [])

        # Column slices, in the order the variables were added.
        start = 0

        def _slice(count: int) -> slice:
            nonlocal start
            result = slice(start, start + count)
            start += count
            return result

        self.g_cols = _slice(k_slots)
        self.grt_cols = _slice(n)
        self.sdt_cols = _slice(n)
        self.brc_cols = _slice(n)
        self.bdc_cols = _slice(n)
        self.waste_cols = _slice(n)
        self.battery_cols = _slice(n + 1)
        self.backlog_cols = _slice(n + 1)

        # Initial state.
        model.add_eq({battery[0]: 1.0}, system.initial_battery)
        model.add_eq({backlog[0]: 1.0}, 0.0)
        if with_deadline:
            model.add_eq({served_cum[0]: 1.0}, 0.0)

        balance_rows = []
        backlog_rows = []
        deadline_rows = []
        deadline_due_index = []
        inv_t = 1.0 / t_slots
        for i in range(n):
            k = i // t_slots
            # Supply-demand balance (eq. 4); rhs dds − r stamped later.
            balance_rows.append(model.n_eq_rows)
            model.add_eq({g[k]: inv_t, grt[i]: 1.0, bdc[i]: 1.0,
                          brc[i]: -1.0, waste[i]: -1.0, sdt[i]: -1.0},
                         0.0)
            # Grid cap (eq. 5).
            model.add_le({g[k]: inv_t, grt[i]: 1.0}, system.p_grid)
            # Battery dynamics (eq. 3).
            model.add_eq({battery[i + 1]: 1.0, battery[i]: -1.0,
                          brc[i]: -system.eta_c,
                          bdc[i]: system.eta_d}, 0.0)
            # Backlog dynamics (eq. 2); rhs ddt stamped later.
            backlog_rows.append(model.n_eq_rows)
            model.add_eq({backlog[i + 1]: 1.0, backlog[i]: -1.0,
                          sdt[i]: 1.0}, 0.0)
            model.add_le({sdt[i]: 1.0, backlog[i]: -1.0}, 0.0)
            if with_deadline:
                # Cumulative service for the deadline constraint.
                model.add_eq({served_cum[i + 1]: 1.0,
                              served_cum[i]: -1.0, sdt[i]: -1.0}, 0.0)
                if i + 1 > deadline_slots:
                    # add_ge stores the negated ≤ row, so the stamped
                    # rhs below is −(cumulative arrivals due).
                    deadline_rows.append(model.n_ub_rows)
                    model.add_ge({served_cum[i + 1]: 1.0}, 0.0)
                    deadline_due_index.append(i + 1 - deadline_slots)

        self.balance_rows = np.asarray(balance_rows, dtype=np.intp)
        self.backlog_rows = np.asarray(backlog_rows, dtype=np.intp)
        self.deadline_rows = np.asarray(deadline_rows, dtype=np.intp)
        self.deadline_due_index = np.asarray(deadline_due_index,
                                             dtype=np.intp)
        self.compiled = CompiledLp(model)
        self.fast = self.compiled.n_cols <= FAST_SOLVE_MAX_COLS
        self._c_template = self.compiled._c.copy()
        self._b_eq_template = self.compiled._b_eq.copy()
        self._b_ub_template = self.compiled._b_ub.copy()

    def instance_vectors(self, plt: np.ndarray, prt: np.ndarray,
                         dds: np.ndarray, ddt: np.ndarray,
                         renewable: np.ndarray) -> dict:
        """One scenario's numerics stamped into full solver vectors."""
        n = self.n
        c = self._c_template.copy()
        c[self.g_cols] = plt[:self.k_slots]
        c[self.grt_cols] = prt[:n]
        b_eq = self._b_eq_template.copy()
        b_eq[self.balance_rows] = dds[:n] - renewable[:n]
        b_eq[self.backlog_rows] = ddt[:n]
        b_ub = self._b_ub_template.copy()
        if self.deadline_rows.size:
            arrivals_cum = np.concatenate([[0.0], np.cumsum(ddt[:n])])
            b_ub[self.deadline_rows] = -arrivals_cum[
                self.deadline_due_index]
        return {"c": c, "b_ub": b_ub, "b_eq": b_eq}

    def solve(self, plt: np.ndarray, prt: np.ndarray,
              dds: np.ndarray, ddt: np.ndarray,
              renewable: np.ndarray,
              telemetry=TELEMETRY_OFF) -> OfflinePlan:
        """Stamp one scenario's numerics and solve."""
        vectors = self.instance_vectors(plt, prt, dds, ddt, renewable)
        solution = self.compiled.solve(fast=self.fast,
                                       telemetry=telemetry, **vectors)
        x = solution.x
        return OfflinePlan(
            gbef=x[self.g_cols].copy(),
            grt=x[self.grt_cols].copy(),
            # HiGHS honours the sdt >= 0 bound only to its primal
            # feasibility tolerance (~1e-7); the replays read a clean
            # plan, so a slightly negative service becomes "none".
            sdt=np.maximum(x[self.sdt_cols], 0.0),
            charge=x[self.brc_cols].copy(),
            discharge=x[self.bdc_cols].copy(),
            waste=x[self.waste_cols].copy(),
            battery=x[self.battery_cols].copy(),
            backlog=x[self.backlog_cols].copy(),
            lp_objective=solution.objective,
        )


@lru_cache(maxsize=8)
def _cached_structure(system: SystemConfig,
                      deadline_slots: int | None,
                      include_real_time: bool,
                      cycle_proxy_cost: float) -> _OfflineStructure:
    return _OfflineStructure(system, deadline_slots, include_real_time,
                             cycle_proxy_cost)


def _get_structure(system: SystemConfig, deadline_slots: int | None,
                   include_real_time: bool,
                   cycle_proxy_cost: float) -> _OfflineStructure:
    try:
        return _cached_structure(system, deadline_slots,
                                 include_real_time, cycle_proxy_cost)
    except TypeError:  # unhashable system — build uncached
        return _OfflineStructure(system, deadline_slots,
                                 include_real_time, cycle_proxy_cost)


def solve_offline_plan(system: SystemConfig, traces: TraceSet,
                       deadline_slots: int | None =
                       DEFAULT_DEADLINE_SLOTS,
                       include_real_time: bool = True,
                       cycle_proxy_cost: float = 0.0) -> OfflinePlan:
    """Build and solve the full-horizon LP for one scenario."""
    deadline_slots = _validate_deadline(deadline_slots)
    n = system.horizon_slots
    if traces.n_slots < n:
        raise ConfigurationError(
            f"traces cover {traces.n_slots} slots, need {n}")
    structure = _get_structure(system, deadline_slots,
                               include_real_time, cycle_proxy_cost)
    plt = traces.coarse_prices(system.fine_slots_per_coarse)
    return structure.solve(plt=np.asarray(plt, dtype=float),
                           prt=traces.price_rt,
                           dds=traces.demand_ds,
                           ddt=traces.demand_dt,
                           renewable=traces.renewable)


def solve_offline_plan_batch(system: SystemConfig, block: TraceBlock,
                             deadline_slots: int | None =
                             DEFAULT_DEADLINE_SLOTS,
                             include_real_time: bool = True,
                             cycle_proxy_cost: float = 0.0,
                             telemetry=TELEMETRY_OFF
                             ) -> list[OfflinePlan]:
    """Solve the offline LP for every scenario of a trace block.

    The constraint structure is compiled once and each scenario stamps
    its cost/rhs vectors — per scenario this is the *same* compiled
    solve :func:`solve_offline_plan` dispatches to, so plan ``b``
    equals the scalar plan for ``block.scenario(b)`` bit for bit.
    ``telemetry`` times each stamped solve (``lp_solve`` span).
    """
    deadline_slots = _validate_deadline(deadline_slots)
    n = system.horizon_slots
    if block.n_slots < n:
        raise ConfigurationError(
            f"trace block covers {block.n_slots} slots, need {n}")
    structure = _get_structure(system, deadline_slots,
                               include_real_time, cycle_proxy_cost)
    plt_all = block.coarse_prices(system.fine_slots_per_coarse)
    return [structure.solve(plt=plt_all[b],
                            prt=block.price_rt[b],
                            dds=block.demand_ds[b],
                            ddt=block.demand_dt[b],
                            renewable=block.renewable[b],
                            telemetry=telemetry)
            for b in range(block.n_scenarios)]


class OfflineOptimal(Controller):
    """Replays the offline plan through the simulation engine.

    Replaying (rather than trusting the LP objective) keeps accounting
    identical across policies: the engine adds the battery
    per-operation cost the LP relaxes away, clamps any residual
    numerical slack, and measures delays with the same FIFO ledger.

    A pre-solved ``plan`` may be injected (the fleet gap column solves
    plans in batch, then replays each through this controller); in
    that case ``traces`` may be ``None`` and ``begin_horizon`` skips
    the solve.
    """

    def __init__(self, traces: TraceSet | None,
                 deadline_slots: int | None = DEFAULT_DEADLINE_SLOTS,
                 include_real_time: bool = True,
                 cycle_proxy_cost: float = 0.0,
                 plan: OfflinePlan | None = None):
        if traces is None and plan is None:
            raise ConfigurationError(
                "OfflineOptimal needs traces to solve against or a "
                "pre-solved plan")
        self._traces = traces
        self._deadline = _validate_deadline(deadline_slots)
        self._include_rt = include_real_time
        self._proxy = cycle_proxy_cost
        self._injected_plan = plan
        self.plan: OfflinePlan | None = None
        self.system: SystemConfig | None = None

    @property
    def name(self) -> str:
        return "OfflineOptimal"

    def begin_horizon(self, system: SystemConfig) -> None:
        self.system = system
        if self._injected_plan is not None:
            self.plan = self._injected_plan
            return
        self.plan = solve_offline_plan(
            system, self._traces, deadline_slots=self._deadline,
            include_real_time=self._include_rt,
            cycle_proxy_cost=self._proxy)

    def plan_long_term(self, obs: CoarseObservation) -> float:
        assert self.plan is not None, "begin_horizon() not called"
        return float(self.plan.gbef[obs.coarse_index])

    def real_time(self, obs: FineObservation) -> RealTimeDecision:
        assert self.plan is not None, "begin_horizon() not called"
        slot = obs.fine_slot
        planned_service = float(self.plan.sdt[slot])
        # Serve min(planned, backlog): the engine computes the service
        # request as gamma·backlog, so gamma = planned/backlog capped
        # at 1 realizes exactly that — including when the queue holds
        # less than one epsilon.  (An earlier version zeroed gamma for
        # backlog ≤ 1e-12, silently dropping planned service and
        # letting the replay drift behind the LP's cumulative-service
        # schedule near empty-queue slots.)
        if obs.backlog > 0.0:
            gamma = min(1.0, planned_service / obs.backlog)
        else:
            gamma = 0.0
        return RealTimeDecision(grt=float(self.plan.grt[slot]),
                                gamma=gamma)


class OfflinePlanBatch:
    """Batch-controller bundle replaying ``B`` pre-solved plans.

    Implements the :class:`~repro.sim.batch.BatchController` protocol
    (duck-typed — no engine import needed here) with pure array
    lookups, so the fleet gap column replays a whole shard through the
    vectorized engine in one pass.  Per scenario the decisions are
    bit-identical to :class:`OfflineOptimal` driving the scalar
    engine with the same plan.
    """

    def __init__(self, plans: list[OfflinePlan]):
        if not plans:
            raise ConfigurationError("OfflinePlanBatch needs >= 1 plan")
        self._gbef = np.stack([plan.gbef for plan in plans])
        self._grt = np.stack([plan.grt for plan in plans])
        self._sdt = np.stack([plan.sdt for plan in plans])
        self.n_scenarios = len(plans)

    @property
    def names(self) -> list[str]:
        return ["OfflineOptimal"] * self.n_scenarios

    def begin_horizon(self, systems) -> None:
        if len(systems) != self.n_scenarios:
            raise ConfigurationError(
                f"{len(systems)} systems for {self.n_scenarios} plans")

    def plan_long_term(self, obs) -> np.ndarray:
        return self._gbef[:, obs.coarse_index].copy()

    def real_time(self, obs) -> tuple[np.ndarray, np.ndarray]:
        planned = self._sdt[:, obs.fine_slot]
        gamma = np.zeros_like(planned)
        mask = obs.backlog > 0.0
        # Same min(planned, backlog) semantics as the scalar replay.
        np.divide(planned, obs.backlog, out=gamma, where=mask)
        np.minimum(gamma, 1.0, out=gamma)
        return self._grt[:, obs.fine_slot].copy(), gamma

    def end_slot(self, feedback) -> None:
        pass
