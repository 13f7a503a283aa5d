"""SmartDPSS — the paper's online control algorithm (Algorithm 1).

The controller runs the two-timescale loop:

1. **Long-term-ahead planning** at every coarse boundary ``t = kT``:
   snapshot the Lyapunov queue vector ``Θ(t) = [Q(t), X(t), Y(t)]``
   (the paper's current-statistics approximation — these frozen values
   weight every decision in the coming interval), then solve P4 for the
   advance purchase ``gbef(t)``.

2. **Real-time balancing** at every fine slot ``τ``: solve P5 for
   ``(grt(τ), γ(τ))`` with the frozen weights but the *live* physical
   state (battery caps, current backlog, observed real-time price).

3. **Queue update** at the end of every slot: the delay-aware queue
   ``Y`` advances by eq. (12) using the *realized* service reported by
   the engine, and the battery queue ``X`` tracks the physical level.

The controller needs no statistics of demand, renewables or prices —
only the current observations — which is the paper's headline property.
Prices are normalized by ``config.price_scale`` before entering any
Lyapunov expression (see :class:`~repro.config.control.SmartDPSSConfig`).
"""

from __future__ import annotations

from repro.config.control import SmartDPSSConfig
from repro.config.system import SystemConfig
from repro.core.bounds import BoundVariant, compute_bounds
from repro.core.interfaces import (
    Controller,
    CoarseObservation,
    FineObservation,
    RealTimeDecision,
    SlotFeedback,
)
from repro.core.p4 import P4Solution, P4State, solve_p4
from repro.core.p5 import SlotState, solve_p5
from repro.core.virtual_queues import (
    BatteryVirtualQueue,
    DelayAwareQueue,
    operational_shift,
    paper_shift,
)


class _RunningMean:
    """Streaming mean of observed prices (no statistics assumed)."""

    def __init__(self, initial: float | None = None):
        self._sum = 0.0
        self._count = 0
        self._initial = initial

    @property
    def value(self) -> float:
        if self._count == 0:
            return 0.0 if self._initial is None else self._initial
        return self._sum / self._count

    def observe(self, value: float) -> None:
        self._sum += value
        self._count += 1

    def reset(self) -> None:
        self._sum = 0.0
        self._count = 0

    def state(self) -> dict:
        """Exact snapshot — including the ``initial`` seed.

        The seed is part of the state on purpose: before any
        observation ``value`` *is* the seed.
        """
        return {"sum": self._sum, "count": self._count,
                "initial": self._initial}


class SmartDPSS(Controller):
    """The paper's online two-timescale Lyapunov controller."""

    def __init__(self, config: SmartDPSSConfig | None = None):
        self.config = config or SmartDPSSConfig()
        self.system: SystemConfig | None = None
        self._y_queue = DelayAwareQueue(self.config.epsilon)
        self._x_queue = BatteryVirtualQueue(shift=0.0)
        self._rt_price_mean = _RunningMean()
        # Frozen coarse-boundary snapshot (the paper's approximation).
        self._q_hat = 0.0
        self._y_hat = 0.0
        self._x_hat = 0.0
        self._planned_rate = 0.0

    @property
    def name(self) -> str:
        mode = self.config.objective_mode.value
        return f"SmartDPSS(V={self.config.v:g}, mode={mode})"

    # ------------------------------------------------------------------
    # Normalization helpers
    # ------------------------------------------------------------------

    def _normalize(self, price: float) -> float:
        return price / self.config.price_scale

    def _normalized_cap(self) -> float:
        assert self.system is not None
        return self.system.p_max / self.config.price_scale

    def _shift_point(self) -> float:
        """Battery-queue shift for the configured mode."""
        assert self.system is not None
        system = self.system
        if self.config.battery_shift_mode == "paper":
            bounds = compute_bounds(system, self.config.v,
                                    self.config.epsilon,
                                    self._normalized_cap(),
                                    variant=BoundVariant.PAPER)
            return paper_shift(bounds.u_max, system.b_min,
                               system.b_discharge_max, system.eta_d)
        return operational_shift(system.b_min, system.b_max,
                                 self.config.v, self._rt_price_mean.value)

    # ------------------------------------------------------------------
    # Controller protocol
    # ------------------------------------------------------------------

    def begin_horizon(self, system: SystemConfig) -> None:
        self.system = system
        self._y_queue = DelayAwareQueue(self.config.epsilon)
        self._x_queue = BatteryVirtualQueue(shift=0.0)
        self._rt_price_mean = _RunningMean()
        self._q_hat = 0.0
        self._y_hat = 0.0
        self._x_hat = 0.0
        self._planned_rate = 0.0

    def plan_long_term(self, obs: CoarseObservation) -> float:
        state = self.prepare_plan(obs)
        if state is None:
            return 0.0
        return self.commit_plan(
            solve_p4(state, self.config.objective_mode))

    def prepare_plan(self, obs: CoarseObservation) -> P4State | None:
        """Freeze the interval weights and build the P4 subproblem.

        Everything :meth:`plan_long_term` does *except* solving P4.
        The batch controller
        (:meth:`repro.core.smartdpss_vec.VecSmartDPSS.prepare_plan_batch`)
        is its array twin and must stay bit-identical to it.  Returns
        ``None`` when the long-term market is disabled (the plan is
        then a zero purchase and there is nothing to solve).
        """
        assert self.system is not None, "begin_horizon() not called"
        system = self.system
        price_lt = self._normalize(obs.price_lt)
        if self._rt_price_mean._count == 0:
            # Before any real-time observation, seed the reference with
            # the first contract price (no a-priori statistics needed).
            self._rt_price_mean = _RunningMean(initial=price_lt)

        # Freeze the Lyapunov weights for the coming interval.
        self._x_queue.retarget(self._shift_point())
        self._q_hat = obs.backlog
        self._y_hat = self._y_queue.value
        self._x_hat = self._x_queue.observe(obs.battery_level)

        battery_usable = (self.config.use_battery
                          and obs.cycle_budget_left != 0)
        if battery_usable:
            # The battery's stored energy can be spent once over the
            # window, not once per slot: spread it over T slots so the
            # feasibility floor stays honest for small batteries.
            usable_energy = max(
                0.0, obs.battery_level - system.b_min) / system.eta_d
            discharge_avail = min(
                system.b_discharge_max,
                usable_energy / system.fine_slots_per_coarse)
            charge_headroom_total = (
                max(0.0, system.b_max - obs.battery_level)
                / system.eta_c)
        else:
            discharge_avail = 0.0
            charge_headroom_total = 0.0

        if not self.config.use_long_term_market:
            self._planned_rate = 0.0
            return None

        return P4State(
            v=self.config.v,
            price_lt=price_lt,
            q_hat=self._q_hat,
            y_hat=self._y_hat,
            x_hat=self._x_hat,
            t_slots=system.fine_slots_per_coarse,
            demand_ds=obs.demand_ds,
            renewable=obs.renewable,
            battery_level=obs.battery_level,
            p_grid=system.p_grid,
            discharge_avail=discharge_avail,
            charge_headroom_total=charge_headroom_total,
            eta_c=system.eta_c,
            s_dt_max=system.s_dt_max,
            waste_penalty=self._normalize(system.waste_penalty),
            profile_demand_ds=obs.profile_demand_ds,
            profile_demand_dt=obs.profile_demand_dt,
            profile_renewable=obs.profile_renewable,
            profile_price_rt=tuple(
                [self._normalize(p) for p in obs.profile_price_rt]),
            plan_deferrable_arrivals=self.config.plan_deferrable_arrivals,
        )

    def commit_plan(self, solution: P4Solution) -> float:
        """Record a solved plan; returns the advance purchase."""
        self._planned_rate = solution.rate
        return solution.gbef

    def real_time(self, obs: FineObservation) -> RealTimeDecision:
        assert self.system is not None, "begin_horizon() not called"
        system = self.system
        price_rt = self._normalize(obs.price_rt)
        self._rt_price_mean.observe(price_rt)

        battery_usable = (self.config.use_battery
                          and obs.cycle_budget_left != 0)
        charge_cap = (system.max_charge_energy(obs.battery_level)
                      if battery_usable else 0.0)
        discharge_cap = (system.max_discharge_energy(obs.battery_level)
                         if battery_usable else 0.0)

        state = SlotState(
            q_hat=self._q_hat,
            y_hat=self._y_hat,
            x_hat=self._x_hat,
            v=self.config.v,
            price_rt=price_rt,
            battery_op_cost=self._normalize(system.battery_op_cost),
            waste_penalty=self._normalize(system.waste_penalty),
            battery_margin=self._normalize(
                self.config.battery_price_margin),
            backlog=obs.backlog,
            gbef_rate=obs.long_term_rate,
            renewable=obs.renewable,
            demand_ds=obs.demand_ds,
            charge_cap=charge_cap,
            discharge_cap=discharge_cap,
            eta_c=system.eta_c,
            eta_d=system.eta_d,
            s_dt_max=system.s_dt_max,
            grt_cap=min(obs.grid_headroom, obs.supply_headroom),
        )
        solution = solve_p5(state, self.config.objective_mode)
        return RealTimeDecision(grt=solution.grt, gamma=solution.gamma)

    def end_slot(self, feedback: SlotFeedback) -> None:
        self._y_queue.update(feedback.served_dt, feedback.had_backlog)
        self._x_queue.observe(feedback.battery_level)
