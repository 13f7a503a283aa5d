"""T-step lookahead (MPC) baseline with a perfect short-term oracle.

The paper positions SmartDPSS against two-timescale designs that rely
on forecasts, citing Yao et al.'s "T-Step Lookahead algorithm" [29]:
solve the next window exactly with (assumed perfect) knowledge of its
demand, renewables and prices, commit the window's decisions, repeat.
SmartDPSS's selling point is matching such designs *without* any
forecast, so this controller quantifies exactly how much the perfect
short-term oracle is worth.

Implementation: at each coarse boundary the controller builds a small
LP over the coming ``T`` fine slots — the same physics as the offline
LP (balance, battery dynamics, queue dynamics, grid cap) — using the
*true* upcoming traces (the oracle), with a terminal value on stored
energy and served backlog so the window optimum is not myopically
end-drained.  The plan is then replayed open-loop within the window.
"""

from __future__ import annotations

import numpy as np

from repro.config.system import SystemConfig
from repro.core.interfaces import (
    CoarseObservation,
    Controller,
    FineObservation,
    RealTimeDecision,
)
from repro.solvers.batch_lp import CompiledLp
from repro.solvers.linear_program import LpModel
from repro.traces.base import TraceSet


class LookaheadController(Controller):
    """Window-exact MPC with a perfect oracle for the next window.

    Parameters
    ----------
    traces:
        The *true* traces (this controller is deliberately oracular).
    terminal_energy_value:
        $/MWh credited to energy left in the battery at window end
        (prevents end-of-window drain); a typical average price works.
    backlog_penalty:
        $/MWh charged for backlog left at window end, pushing the MPC
        to serve deferred load within a window or two.
    """

    def __init__(self, traces: TraceSet,
                 terminal_energy_value: float = 40.0,
                 backlog_penalty: float = 55.0):
        self._traces = traces
        self.terminal_energy_value = terminal_energy_value
        self.backlog_penalty = backlog_penalty
        self.system: SystemConfig | None = None
        self._window_grt: np.ndarray | None = None
        self._window_sdt: np.ndarray | None = None
        self._window_start = 0

    @property
    def name(self) -> str:
        return "Lookahead-MPC"

    def begin_horizon(self, system: SystemConfig) -> None:
        self.system = system
        self._window_grt = None
        self._window_sdt = None
        self._window_start = 0

    # ------------------------------------------------------------------
    # Window LP
    # ------------------------------------------------------------------

    def _solve_window(self, start: int, battery_level: float,
                      backlog: float, price_lt: float,
                      ) -> tuple[float, np.ndarray, np.ndarray]:
        system = self.system
        assert system is not None
        t = system.fine_slots_per_coarse
        end = min(start + t, self._traces.n_slots)
        n = end - start
        dds = self._traces.demand_ds[start:end]
        ddt = self._traces.demand_dt[start:end]
        renewable = self._traces.renewable[start:end]
        prt = self._traces.price_rt[start:end]

        model = LpModel(f"lookahead[{start}]")
        gbef = model.add_var("gbef", lb=0.0,
                             ub=system.p_grid * t,
                             cost=price_lt)
        grt = [model.add_var(f"grt[{i}]", lb=0.0, ub=system.p_grid,
                             cost=float(prt[i])) for i in range(n)]
        sdt = [model.add_var(f"sdt[{i}]", lb=0.0,
                             ub=system.s_dt_max) for i in range(n)]
        brc = [model.add_var(f"brc[{i}]", lb=0.0,
                             ub=system.b_charge_max)
               for i in range(n)]
        bdc = [model.add_var(f"bdc[{i}]", lb=0.0,
                             ub=system.b_discharge_max)
               for i in range(n)]
        waste = [model.add_var(f"w[{i}]", lb=0.0,
                               cost=system.waste_penalty)
                 for i in range(n)]
        level = [model.add_var(f"b[{i}]", lb=system.b_min,
                               ub=system.b_max)
                 for i in range(n + 1)]
        queue = [model.add_var(f"q[{i}]", lb=0.0)
                 for i in range(n + 1)]
        # Terminal values: stored energy is an asset, backlog a debt.
        model.add_eq({level[0]: 1.0}, battery_level)
        model.add_eq({queue[0]: 1.0}, backlog)
        terminal = model.add_var("terminal", lb=-np.inf, ub=np.inf,
                                 cost=1.0)
        model.add_eq({terminal: 1.0,
                      level[n]: self.terminal_energy_value,
                      queue[n]: -self.backlog_penalty}, 0.0)

        inv_t = 1.0 / t
        for i in range(n):
            model.add_eq({gbef: inv_t, grt[i]: 1.0, bdc[i]: 1.0,
                          brc[i]: -1.0, waste[i]: -1.0,
                          sdt[i]: -1.0},
                         float(dds[i] - renewable[i]))
            model.add_le({gbef: inv_t, grt[i]: 1.0}, system.p_grid)
            model.add_eq({level[i + 1]: 1.0, level[i]: -1.0,
                          brc[i]: -system.eta_c,
                          bdc[i]: system.eta_d}, 0.0)
            model.add_eq({queue[i + 1]: 1.0, queue[i]: -1.0,
                          sdt[i]: 1.0}, float(ddt[i]))
            model.add_le({sdt[i]: 1.0, queue[i]: -1.0}, 0.0)

        solution = CompiledLp(model).solve()
        return (solution.value(gbef), solution.values(grt),
                solution.values(sdt))

    # ------------------------------------------------------------------
    # Controller protocol
    # ------------------------------------------------------------------

    def plan_long_term(self, obs: CoarseObservation) -> float:
        gbef, grt, sdt = self._solve_window(
            obs.fine_slot, obs.battery_level, obs.backlog,
            obs.price_lt)
        self._window_grt = grt
        self._window_sdt = sdt
        self._window_start = obs.fine_slot
        return gbef

    def real_time(self, obs: FineObservation) -> RealTimeDecision:
        assert self._window_grt is not None, "plan_long_term not called"
        offset = obs.fine_slot - self._window_start
        grt = float(self._window_grt[offset])
        planned_service = float(self._window_sdt[offset])
        if obs.backlog > 1e-12 and planned_service > 0:
            gamma = min(1.0, planned_service / obs.backlog)
        else:
            gamma = 0.0
        return RealTimeDecision(grt=grt, gamma=gamma)


class PaperP2Offline(LookaheadController):
    """The paper's own offline construction (Section II-D, problem P2).

    P2 serves the *total* demand ``d(τ)`` in every slot — no strategic
    deferral — with clairvoyant knowledge of the coarse window and the
    battery as the only flexibility.  Realized here as the lookahead
    MPC with a backlog penalty high enough that deferred demand is
    cleared at the first feasible opportunity, which is exactly P2's
    behaviour under the engine's arrive-then-serve queue semantics.

    Comparing it against the joint full-horizon LP
    (:class:`~repro.baselines.offline.OfflineOptimal`) measures how
    much the paper's per-window benchmark leaves on the table.
    """

    def __init__(self, traces: TraceSet,
                 terminal_energy_value: float = 40.0):
        super().__init__(traces,
                         terminal_energy_value=terminal_energy_value,
                         backlog_penalty=10_000.0)

    @property
    def name(self) -> str:
        return "PaperP2-Offline"
