"""Vectorized SmartDPSS — Algorithm 1 over a batch of scenarios.

:class:`VecSmartDPSS` drives ``B`` independent SmartDPSS controllers in
lockstep for the batch engine
(:class:`~repro.fleet.engine.StreamingBatchSimulator`), through the
batch controller protocol of :mod:`repro.sim.batch`.  Both halves of
the algorithm's two-timescale structure run in array form:

* **Real-time balancing (every fine slot — the hot path)** runs fully
  vectorized: price normalization, the streaming price mean, battery
  caps and the exact P5 vertex enumeration
  (:func:`repro.core.p5_vec.solve_p5_batch`) all advance as ``(B,)``
  arrays with no per-scenario Python dispatch.

* **Long-term planning (once per coarse slot)** runs through
  :meth:`VecSmartDPSS.prepare_plan_batch` — the array twin of ``B``
  scalar :meth:`~repro.core.smartdpss.SmartDPSS.prepare_plan` calls.
  Price normalization, the first-boundary ``_RunningMean`` seeding
  rule, shift-point selection (``paper``/``operational`` modes mixed
  freely in one batch, via the array-capable
  :func:`~repro.core.bounds.compute_bounds`), weight freezing and the
  battery feasibility terms are all ``(B,)`` array expressions, and
  the observation arrays feed :meth:`~repro.core.p4.StackedWindows.stack`
  directly — no per-scenario Python — for one
  :func:`~repro.core.p4.solve_windows` tensor pass (the only P4
  solver; the scalar ``solve_p4`` is its one-row case).

The batch owns its state: the ``Y`` and ``X`` virtual queues (values,
the ``Y`` peak and the ``X`` extremes), the real-time price mean with
its first-boundary seed and the frozen weights are ``(B,)`` arrays.
The scalar :class:`~repro.core.smartdpss.SmartDPSS` instances it is
given supply only their ``config`` and ``name``; their
``begin_horizon`` is never called and nothing is written back, so a
batch run leaves them as they were.  The scalar
:class:`~repro.sim.engine.Simulator` stays the reference, and
``tests/equivalence/test_batch_planning.py`` compares these arrays,
index by index, with a scalar run's queue and price-mean state.

The per-slot path runs in preallocated buffers — a
:class:`RealTimeWorkspace` for the controller prep and queue updates
and a :class:`~repro.core.p5_vec.P5Workspace` for the P5 solve — built
once per horizon.

Exactness contract: a batch of ``B`` scenarios produces bit-identical
decisions to ``B`` scalar ``SmartDPSS`` runs (enforced by
``tests/equivalence/``).  Scenario configs may differ in any numeric
parameter (``V``, ``ε``, price scale, margin) and in per-scenario
planning flags (``use_long_term_market``, ``use_battery``, shift
mode); only ``objective_mode`` must agree across the batch because it
selects the vectorized P5 objective.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config.control import SmartDPSSConfig
from repro.core.bounds import BoundVariant, SystemArrays, compute_bounds
from repro.core.interfaces import BatchCoarseObservation
from repro.core.p4 import StackedWindows, solve_windows
from repro.core.p5_vec import BatchSlotState, P5Workspace, solve_p5_batch
from repro.core.smartdpss import SmartDPSS
from repro.core.virtual_queues import operational_shift, paper_shift
from repro.exceptions import ConfigurationError
from repro.config.system import SystemConfig
from repro.telemetry.core import TELEMETRY_OFF


class RealTimeWorkspace:
    """Buffers for ``VecSmartDPSS``'s per-slot prep and queue updates."""

    __slots__ = ("price_n", "charge_room", "charge_cap", "discharge_room",
                 "discharge_cap", "grt_cap", "growth", "x_value", "usable",
                 "not_usable")

    def __init__(self, n: int):
        for name in ("price_n", "charge_room", "charge_cap",
                     "discharge_room", "discharge_cap", "grt_cap",
                     "growth", "x_value"):
            setattr(self, name, np.empty(n))
        self.usable = np.empty(n, dtype=bool)
        self.not_usable = np.empty(n, dtype=bool)


class VecSmartDPSS:
    """Batch controller advancing ``B`` SmartDPSS policies in lockstep.

    Parameters
    ----------
    controllers:
        One scalar :class:`SmartDPSS` per scenario.  Only their
        ``config`` and ``name`` are read; the instances are never
        driven or modified.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` (``None`` = off).
        Times the pooled P4 tensor pass (``p4`` span, one per coarse
        boundary) and the vectorized P5 solve (``p5``, guarded, every
        fine slot); never touches numeric state, so decisions are
        bit-identical with it on or off.
    """

    def __init__(self, controllers: Sequence[SmartDPSS], *,
                 telemetry=None):
        if not controllers:
            raise ConfigurationError("need at least one controller")
        self._configs = [c.config for c in controllers]
        self.names = [c.name for c in controllers]
        self._telemetry = telemetry if telemetry is not None \
            else TELEMETRY_OFF
        modes = {config.objective_mode for config in self._configs}
        if len(modes) > 1:
            raise ConfigurationError(
                f"batch requires one objective mode, got {sorted(m.value for m in modes)}")
        self.mode = self._configs[0].objective_mode
        self._n = len(self._configs)

    @classmethod
    def from_configs(cls, configs: Sequence[SmartDPSSConfig | None]
                     ) -> "VecSmartDPSS":
        """Build from configs (``None`` entries get the defaults)."""
        return cls([SmartDPSS(config) for config in configs])

    # ------------------------------------------------------------------
    # Batch controller protocol
    # ------------------------------------------------------------------

    def begin_horizon(self, systems: Sequence[SystemConfig]) -> None:
        if len(systems) != self._n:
            raise ConfigurationError(
                f"{len(systems)} systems for {self._n} controllers")
        n = self._n

        def pull(get) -> np.ndarray:
            return np.array([float(get(i)) for i in range(n)])

        configs = self._configs
        self._v = pull(lambda i: configs[i].v)
        self._epsilon = pull(lambda i: configs[i].epsilon)
        self._price_scale = pull(lambda i: configs[i].price_scale)
        self._use_battery = np.array(
            [bool(configs[i].use_battery) for i in range(n)])
        self._use_lt = np.array(
            [bool(configs[i].use_long_term_market) for i in range(n)])
        self._shift_paper = np.array(
            [configs[i].battery_shift_mode == "paper" for i in range(n)])
        self._plan_deferrable = np.array(
            [bool(configs[i].plan_deferrable_arrivals) for i in range(n)])
        # Normalized controller-unit prices, as the scalar code computes
        # them per observation (here hoisted: the factors are constant).
        self._margin_n = pull(
            lambda i: configs[i].battery_price_margin
            / configs[i].price_scale)
        self._op_cost_n = pull(
            lambda i: systems[i].battery_op_cost / configs[i].price_scale)
        self._waste_n = pull(
            lambda i: systems[i].waste_penalty / configs[i].price_scale)
        self._cap_n = pull(
            lambda i: systems[i].p_max / configs[i].price_scale)
        self._p_grid = pull(lambda i: systems[i].p_grid)
        # The battery, service and window fields, stacked once for both
        # the bounds and the per-slot arithmetic.
        self._system = SystemArrays.stack(systems)

        # Per-scenario controller state.  ``_x_min`` / ``_x_max`` stay
        # at ±inf until the battery queue is first observed.
        self._y = np.zeros(n)
        self._y_peak = np.zeros(n)
        self._rt_sum = np.zeros(n)
        self._rt_count = 0
        self._rt_initial = np.zeros(n)
        self._q_hat = np.zeros(n)
        self._y_hat = np.zeros(n)
        self._x_hat = np.zeros(n)
        self._shift = np.zeros(n)
        self._x_value = np.zeros(n)
        self._x_min = np.full(n, np.inf)
        self._x_max = np.full(n, -np.inf)

        # Preallocated per-slot buffers (one set per horizon; the
        # engine runs one horizon per shard, so this is the per-shard
        # slot workspace the hot path reuses every fine slot).
        self._work_p5 = P5Workspace(n)
        self._work_rt = RealTimeWorkspace(n)

    # -- planning (per coarse slot) ------------------------------------

    def _mean_value(self) -> np.ndarray:
        """Vector twin of ``_RunningMean.value`` for every scenario
        (the seed before any observation; zeros until seeded)."""
        if self._rt_count == 0:
            return self._rt_initial
        return self._rt_sum / self._rt_count

    def prepare_plan_batch(self, obs: BatchCoarseObservation
                           ) -> tuple[StackedWindows | None, np.ndarray]:
        """Array twin of ``B`` scalar ``prepare_plan`` calls.

        Freezes the interval weights, selects shift points for both
        shift modes in one pass, applies the first-boundary
        ``_RunningMean`` seeding rule, and stacks the P4 inputs of the
        scenarios whose long-term market is enabled straight from the
        observation arrays.  Returns ``(windows, rows)``: the
        :class:`~repro.core.p4.StackedWindows` for
        :func:`~repro.core.p4.solve_windows` (``None`` when no scenario
        plans) and the scenario rows they cover.  Every array
        expression mirrors the scalar code elementwise, so the frozen
        weights and P4 inputs are bit-identical to the per-scenario
        path.
        """
        system = self._system
        price_lt = obs.price_lt / self._price_scale
        if self._rt_count == 0:
            # Before any real-time observation, seed the reference with
            # the first contract price (no a-priori statistics needed).
            self._rt_initial = np.array(price_lt, dtype=float)

        # Shift-point selection, both modes evaluated as arrays.
        shift = operational_shift(system.b_min, system.b_max, self._v,
                                  self._mean_value())
        if self._shift_paper.any():
            bounds = compute_bounds(system, self._v,
                                    self._epsilon, self._cap_n,
                                    variant=BoundVariant.PAPER)
            shift = np.where(
                self._shift_paper,
                paper_shift(bounds.u_max, system.b_min,
                            system.b_discharge_max, system.eta_d),
                shift)

        # Freeze the Lyapunov weights for the coming interval.
        self._shift = shift
        self._q_hat = np.array(obs.backlog, dtype=float)
        self._y_hat = self._y.copy()
        x_value = obs.battery_level - shift
        self._x_value = x_value
        self._x_min = np.minimum(self._x_min, x_value)
        self._x_max = np.maximum(self._x_max, x_value)
        self._x_hat = x_value

        battery_usable = self._use_battery & (obs.cycle_budget_left != 0)
        # The battery's stored energy can be spent once over the
        # window, not once per slot: spread it over T slots so the
        # feasibility floor stays honest for small batteries.
        usable_energy = np.maximum(
            0.0, obs.battery_level - system.b_min) / system.eta_d
        discharge_avail = np.where(
            battery_usable,
            np.minimum(system.b_discharge_max,
                       usable_energy / system.fine_slots_per_coarse), 0.0)
        charge_headroom = np.where(
            battery_usable,
            np.maximum(0.0, system.b_max - obs.battery_level)
            / system.eta_c, 0.0)

        # Scenarios without the long-term market plan a zero purchase.
        rows = np.nonzero(self._use_lt)[0]
        if rows.size == 0:
            return None, rows
        return StackedWindows.stack(
            v=self._v[rows],
            price_lt=price_lt[rows],
            q_hat=self._q_hat[rows],
            y_hat=self._y_hat[rows],
            x_hat=self._x_hat[rows],
            t_slots=system.fine_slots_per_coarse[rows],
            demand_ds=obs.demand_ds[rows],
            renewable=obs.renewable[rows],
            p_grid=self._p_grid[rows],
            discharge_avail=discharge_avail[rows],
            charge_headroom_total=charge_headroom[rows],
            eta_c=system.eta_c[rows],
            s_dt_max=system.s_dt_max[rows],
            waste_penalty=self._waste_n[rows],
            plan_deferrable_arrivals=self._plan_deferrable[rows],
            profile_demand_ds=obs.profile_demand_ds[rows],
            profile_demand_dt=obs.profile_demand_dt[rows],
            profile_renewable=obs.profile_renewable[rows],
            profile_price_rt=(obs.profile_price_rt[rows]
                              / self._price_scale[rows][:, None]),
        ), rows

    def plan_long_term(self, obs: BatchCoarseObservation) -> np.ndarray:
        """Plan every scenario's advance purchase ``gbef(t)``.

        Preparation (weight freezing, shift selection, P4 input
        stacking) runs through :meth:`prepare_plan_batch`; the P4
        solves themselves — the expensive part — are one
        :func:`~repro.core.p4.solve_windows` tensor pass.
        """
        windows, rows = self.prepare_plan_batch(obs)
        gbef = np.zeros(self._n)
        if windows is not None:
            with self._telemetry.span("p4"):
                rates = solve_windows(windows, self.mode)
            gbef[rows] = rates * windows.t_slots
        return gbef

    # -- real-time balancing (per fine slot; fully vectorized) ---------

    def real_time(self, obs) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized twin of :meth:`SmartDPSS.real_time`.

        Every per-slot temporary is written into the horizon's
        :class:`RealTimeWorkspace` with the scalar code's elementwise
        operations, in the same order.
        """
        w = self._work_rt
        system = self._system
        np.divide(obs.price_rt, self._price_scale, out=w.price_n)
        np.add(self._rt_sum, w.price_n, out=self._rt_sum)
        self._rt_count += 1

        np.not_equal(obs.cycle_budget_left, 0, out=w.usable)
        np.logical_and(self._use_battery, w.usable, out=w.usable)
        np.logical_not(w.usable, out=w.not_usable)
        np.subtract(system.b_max, obs.battery_level, out=w.charge_room)
        np.maximum(w.charge_room, 0.0, out=w.charge_room)
        np.divide(w.charge_room, system.eta_c, out=w.charge_room)
        np.minimum(system.b_charge_max, w.charge_room, out=w.charge_cap)
        np.copyto(w.charge_cap, 0.0, where=w.not_usable)
        np.subtract(obs.battery_level, system.b_min, out=w.discharge_room)
        np.maximum(w.discharge_room, 0.0, out=w.discharge_room)
        np.divide(w.discharge_room, system.eta_d, out=w.discharge_room)
        np.minimum(system.b_discharge_max, w.discharge_room,
                   out=w.discharge_cap)
        np.copyto(w.discharge_cap, 0.0, where=w.not_usable)
        np.minimum(obs.grid_headroom, obs.supply_headroom, out=w.grt_cap)

        state = BatchSlotState(
            q_hat=self._q_hat,
            y_hat=self._y_hat,
            x_hat=self._x_hat,
            v=self._v,
            price_rt=w.price_n,
            battery_op_cost=self._op_cost_n,
            waste_penalty=self._waste_n,
            backlog=obs.backlog,
            gbef_rate=obs.long_term_rate,
            renewable=obs.renewable,
            demand_ds=obs.demand_ds,
            charge_cap=w.charge_cap,
            discharge_cap=w.discharge_cap,
            eta_c=system.eta_c,
            eta_d=system.eta_d,
            s_dt_max=system.s_dt_max,
            grt_cap=w.grt_cap,
            battery_margin=self._margin_n,
        )
        tele = self._telemetry
        if not tele.enabled:
            return solve_p5_batch(state, self.mode, self._work_p5)
        t0 = tele.clock()
        decision = solve_p5_batch(state, self.mode, self._work_p5)
        tele.add_time("p5", tele.clock() - t0)
        return decision

    def end_slot(self, feedback) -> None:
        """Vectorized queue updates (eq. 12 and the battery tracker)."""
        w = self._work_rt
        np.copyto(w.growth, 0.0)
        np.copyto(w.growth, self._epsilon, where=feedback.had_backlog)
        np.subtract(self._y, feedback.served_dt, out=self._y)
        np.add(self._y, w.growth, out=self._y)
        np.maximum(self._y, 0.0, out=self._y)
        np.maximum(self._y_peak, self._y, out=self._y_peak)
        # w.x_value is a dedicated buffer: the frozen ``x_hat`` (aliased
        # to the boundary's x_value array) must not be overwritten
        # mid-window, so the live value is rebound to the buffer.
        np.subtract(feedback.battery_level, self._shift, out=w.x_value)
        self._x_value = w.x_value
        np.minimum(self._x_min, w.x_value, out=self._x_min)
        np.maximum(self._x_max, w.x_value, out=self._x_max)
