"""The discrete-time DPSS simulation engine.

The engine is the physics authority: it owns the UPS battery, the
backlog queue and the market ledgers, enforces the grid interconnect
cap (paper eq. 5: each advance block is clipped to ``T · Pgrid`` and
each real-time purchase to the feeder headroom), and it resolves the
supply-demand balance (paper eq. 4) every fine slot:

    s(τ) + bdc(τ) − brc(τ) = dds(τ) + γ(τ)Q(τ) + W(τ)

with service priority *delay-sensitive first*: when supply plus maximal
discharge cannot carry everything, deferrable service is cut before
delay-sensitive demand, and any remaining gap is recorded as unserved
energy (an availability violation — impossible under sane
configurations because demand peaks are clipped at ``Pgrid``).

Controllers only choose ``gbef``, ``grt`` and ``γ``; every quantity is
clamped to its physical range before it touches state, so the engine
never trusts a policy.  Observations are built from the *observed*
traces (possibly noise-injected, Fig. 9) while physics and billing use
the *true* traces.
"""

from __future__ import annotations

import numpy as np

from repro.battery.lifetime import CycleLedger
from repro.battery.model import UpsBattery
from repro.config.system import SystemConfig
from repro.core.interfaces import (
    CoarseObservation,
    Controller,
    FineObservation,
    RealTimeDecision,
    SlotFeedback,
)
from repro.exceptions import (
    ConfigurationError,
    HorizonMismatchError,
    InfeasibleActionError,
)
from repro.grid.markets import LongTermMarket, RealTimeMarket
from repro.sim.recorder import Recorder
from repro.sim.results import SimulationResult
from repro.traces.base import TraceSet
from repro.workload.queue import BacklogQueue


def checked_grid_capacity(grid_capacity, n_slots: int) -> np.ndarray:
    """``grid_capacity`` as a float array, checked for an ``n_slots``
    horizon: it must cover the horizon and be ``>= 0`` in every slot.

    Every engine validates an outage schedule through this one check.
    The inverted comparison also rejects NaN, as the batch engines'
    price check does.
    """
    capacity = np.asarray(grid_capacity, dtype=float)
    if capacity.size < n_slots:
        raise HorizonMismatchError(
            f"grid capacity covers {capacity.size} slots but the "
            f"horizon needs {n_slots}")
    if np.any(~(capacity >= 0)):
        raise ConfigurationError("grid capacity must be >= 0")
    return capacity


class Simulator:
    """Drives one controller over one horizon of traces.

    ``grid_capacity`` optionally supplies a per-slot feeder capacity
    (MWh) replacing the static ``Pgrid`` — zero entries model grid
    outages (:mod:`repro.sim.outages`).  Contracted advance energy that
    the feeder cannot deliver is not billed (utilities do not charge
    for energy they failed to deliver).
    """

    def __init__(self, system: SystemConfig, controller: Controller,
                 traces: TraceSet, observed: TraceSet | None = None,
                 grid_capacity=None):
        if traces.n_slots < system.horizon_slots:
            raise HorizonMismatchError(
                f"traces cover {traces.n_slots} slots but the system "
                f"horizon needs {system.horizon_slots}")
        self.system = system
        self.controller = controller
        self.traces = traces
        self.observed = traces if observed is None else observed
        if self.observed.n_slots != traces.n_slots:
            raise HorizonMismatchError(
                f"observed traces cover {self.observed.n_slots} slots, "
                f"true traces {traces.n_slots}")
        self.grid_capacity = None if grid_capacity is None \
            else checked_grid_capacity(grid_capacity, system.horizon_slots)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Simulate the full horizon and return the result bundle."""
        system = self.system
        n_slots = system.horizon_slots
        t_slots = system.fine_slots_per_coarse

        battery = UpsBattery(system)
        backlog = BacklogQueue()
        cycles = CycleLedger(system.battery_op_cost, system.cycle_budget)
        lt_market = LongTermMarket(system.p_max, t_slots)
        rt_market = RealTimeMarket(system.p_max)
        recorder = Recorder(n_slots)

        true_plt = self.traces.coarse_prices(t_slots)
        obs_plt = self.observed.coarse_prices(t_slots)

        self.controller.begin_horizon(system)

        for slot in range(n_slots):
            coarse = slot // t_slots

            if system.is_coarse_boundary(slot):
                gbef = self._plan(coarse, slot, battery, backlog,
                                  cycles, obs_plt)
                gbef = min(max(0.0, gbef), system.p_grid * t_slots)
                lt_market.purchase_block(gbef, float(true_plt[coarse]))

            if self.grid_capacity is None:
                cap = system.p_grid
            else:
                cap = float(self.grid_capacity[slot])
            rate = min(lt_market.per_fine_slot_energy, cap)
            decision = self._decide(slot, coarse, rate, battery,
                                    backlog, cycles, cap)

            self._step_physics(slot, coarse, rate, decision, battery,
                               backlog, cycles, cap,
                               lt_market, rt_market, recorder,
                               float(true_plt[coarse]))

        return SimulationResult(
            controller_name=self.controller.name,
            system=system,
            series=recorder.as_dict(),
            delay_stats=backlog.stats,
            battery_operations=cycles.operations,
            lt_energy=lt_market.ledger.energy,
            rt_energy=rt_market.ledger.energy,
            meta={"traces": dict(self.traces.meta),
                  "observed": dict(self.observed.meta)},
        )

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def _plan(self, coarse: int, slot: int, battery: UpsBattery,
              backlog: BacklogQueue, cycles: CycleLedger,
              obs_plt) -> float:
        # The paper's planner "observes the demand d(t) and renewable
        # r(t) generated during time slot t" — a coarse slot's worth of
        # data.  Online-legal reading: the per-fine-slot averages of
        # the *previous* coarse window (the boundary slot itself for
        # the very first window, where no history exists yet).
        t_slots = self.system.fine_slots_per_coarse
        window = (slice(slot - t_slots, slot) if slot >= t_slots
                  else slice(slot, slot + 1))
        profile_ds = tuple(float(v) for v in self.observed.demand_ds[window])
        profile_dt = tuple(float(v) for v in self.observed.demand_dt[window])
        profile_r = tuple(float(v) for v in self.observed.renewable[window])
        profile_p = tuple(float(v) for v in self.observed.price_rt[window])
        obs = CoarseObservation(
            coarse_index=coarse,
            fine_slot=slot,
            price_lt=float(obs_plt[coarse]),
            demand_ds=sum(profile_ds) / len(profile_ds),
            demand_dt=sum(profile_dt) / len(profile_dt),
            renewable=sum(profile_r) / len(profile_r),
            battery_level=battery.level,
            backlog=backlog.backlog,
            cycle_budget_left=cycles.remaining,
            profile_demand_ds=profile_ds,
            profile_demand_dt=profile_dt,
            profile_renewable=profile_r,
            profile_price_rt=profile_p,
        )
        return float(self.controller.plan_long_term(obs))

    def _decide(self, slot: int, coarse: int, rate: float,
                battery: UpsBattery, backlog: BacklogQueue,
                cycles: CycleLedger,
                grid_cap: float) -> RealTimeDecision:
        observed_r = float(self.observed.renewable[slot])
        obs = FineObservation(
            fine_slot=slot,
            coarse_index=coarse,
            price_rt=float(self.observed.price_rt[slot]),
            demand_ds=float(self.observed.demand_ds[slot]),
            demand_dt=float(self.observed.demand_dt[slot]),
            renewable=observed_r,
            battery_level=battery.level,
            backlog=backlog.backlog,
            long_term_rate=rate,
            grid_headroom=max(0.0, grid_cap - rate),
            supply_headroom=max(0.0, self.system.s_max - rate
                                - observed_r),
            cycle_budget_left=cycles.remaining,
        )
        return self.controller.real_time(obs)

    def _step_physics(self, slot: int, coarse: int, rate: float,
                      decision: RealTimeDecision, battery: UpsBattery,
                      backlog: BacklogQueue, cycles: CycleLedger,
                      grid_cap: float,
                      lt_market, rt_market, recorder: Recorder,
                      plt_true: float) -> None:
        system = self.system
        dds = float(self.traces.demand_ds[slot])
        ddt = float(self.traces.demand_dt[slot])
        renewable = float(self.traces.renewable[slot])
        prt = float(self.traces.price_rt[slot])

        # Clamp the real-time purchase to the feeder and supply caps.
        if decision.grt < 0:
            raise InfeasibleActionError(
                f"real-time purchase must be >= 0, got {decision.grt}")
        grt = min(decision.grt, max(0.0, grid_cap - rate))
        grt = min(grt, max(0.0, system.s_max - rate - renewable))
        cost_rt = rt_market.purchase(grt, prt)

        # Renewable curtailment if the bus is over the supply cap.
        renewable_used = min(renewable,
                             max(0.0, system.s_max - rate - grt))
        curtailed = renewable - renewable_used
        supply = rate + grt + renewable_used

        # Service resolution: delay-sensitive first.
        had_backlog = backlog.has_backlog
        q_now = backlog.backlog
        sdt_request = min(decision.gamma * q_now, system.s_dt_max)
        battery_allowed = not cycles.exhausted
        charge = discharge = waste = unserved = 0.0
        sdt = sdt_request

        desired = dds + sdt_request
        if supply >= desired - 1e-12:
            surplus = max(0.0, supply - desired)
            if surplus < 1e-12:
                surplus = 0.0  # float residue, not a flow
            if battery_allowed and surplus > 0.0:
                action = battery.charge(surplus)
                charge = action.charge
            waste = surplus - charge
        else:
            need = desired - supply
            discharge_cap = battery.available if battery_allowed else 0.0
            if discharge_cap >= need:
                discharge = need
            else:
                covered = supply + discharge_cap
                discharge = discharge_cap
                if covered >= dds:
                    sdt = covered - dds
                else:
                    sdt = 0.0
                    unserved = dds - covered
            if discharge > 0:
                battery.discharge(discharge)

        cost_battery = cycles.record(charge, discharge)
        served_parcels = backlog.step(sdt, ddt, slot)
        del served_parcels  # delays accumulate inside backlog.stats

        cost_lt = rate * plt_true
        cost_waste = waste * system.waste_penalty
        recorder.record(
            cost_lt=cost_lt,
            cost_rt=cost_rt,
            cost_battery=cost_battery,
            cost_waste=cost_waste,
            cost_total=cost_lt + cost_rt + cost_battery + cost_waste,
            gbef_rate=rate,
            grt=grt,
            renewable_used=renewable_used,
            renewable_curtailed=curtailed,
            served_ds=dds - unserved,
            served_dt=sdt,
            unserved_ds=unserved,
            charge=charge,
            discharge=discharge,
            battery_level=battery.level,
            waste=waste,
            backlog=backlog.backlog,
            gamma=decision.gamma,
        )
        self.controller.end_slot(SlotFeedback(
            fine_slot=slot,
            served_dt=sdt,
            served_ds=dds - unserved,
            unserved_ds=unserved,
            charge=charge,
            discharge=discharge,
            waste=waste,
            battery_level=battery.level,
            backlog=backlog.backlog,
            had_backlog=had_backlog,
        ))
