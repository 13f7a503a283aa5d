"""P5 objective variants and the shared slot physics (DESIGN.md §2).

The real-time subproblem chooses ``(grt, γ)``; charge, discharge and
waste then *follow* from the supply-demand balance (eq. 4).  Both
objective variants share that physics resolution
(:func:`resolve_physics`) and differ only in how they price a candidate
action:

* :func:`objective_paper` — the P5 objective exactly as printed in
  Algorithm 1.  Its purchase term ``grt·[V·prt − Q − Y]`` credits a
  queue-drift reduction to *buying* energy whether or not the energy
  serves the queue, and its service term ``γ·[Q² − QY]`` carries a sign
  inconsistent with the drift of ``Y``.  It is retained verbatim as an
  ablation (the ablations experiment quantifies the damage).

* :func:`objective_derived` — the textbook drift-plus-penalty expansion
  of the same Lyapunov function: each queue's drift is credited to the
  *realized* service/charge quantities after physics resolution:

      V·[prt·grt + Cb·n + w·W] − (Q+Y)·sdt + X·(ηc·brc − ηd·bdc).

  This is the library default; it yields the price-arbitrage and
  serve-when-cheap behaviour the paper's evaluation exhibits.

Prices entering these objectives are already normalized (divided by
``SmartDPSSConfig``'s price scale) so ``V`` sweeps match the paper's
magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.control import ObjectiveMode

#: Feasibility slack for unserved energy at candidate evaluation.
_UNSERVED_TOL = 1e-9

#: Net-surplus magnitudes below this are float residue, not flows;
#: snapping them to zero keeps 1e-17 "discharges" from being charged a
#: battery operation cost.
_BALANCE_TOL = 1e-12


@dataclass(frozen=True)
class SlotState:
    """Everything P5 needs to price one fine slot's candidates.

    Weights (``q_hat, y_hat, x_hat``) are the Lyapunov queue values
    frozen at the enclosing coarse boundary (the paper's
    current-statistics approximation); live quantities (``backlog``,
    battery caps) reflect the physical state at this very slot.
    """

    # Frozen Lyapunov weights.
    q_hat: float
    y_hat: float
    x_hat: float
    # Controller parameters (prices normalized).
    v: float
    price_rt: float
    battery_op_cost: float
    waste_penalty: float
    # Live physical state.
    backlog: float
    gbef_rate: float
    renewable: float
    demand_ds: float
    charge_cap: float
    discharge_cap: float
    eta_c: float
    eta_d: float
    s_dt_max: float
    grt_cap: float
    battery_margin: float = 0.0


@dataclass(frozen=True)
class SlotPhysics:
    """Resolved balance for one candidate ``(grt, γ)``."""

    sdt: float
    charge: float
    discharge: float
    waste: float
    unserved: float

    @property
    def battery_active(self) -> bool:
        """The operation indicator ``n(τ)``."""
        return self.charge > 0.0 or self.discharge > 0.0


def resolve_physics(state: SlotState, grt: float,
                    gamma: float) -> SlotPhysics:
    """Apply the supply-demand balance (eq. 4) to one candidate.

    Service first: ``sdt = min(γ·Q, Sdtmax)``.  The net surplus
    ``s − dds − sdt`` then charges the battery (up to its cap, rest is
    waste) or is covered by discharge (up to its cap, rest is
    *unserved* — an infeasible candidate unless the engine's emergency
    handling allows it).
    """
    sdt = min(gamma * state.backlog, state.s_dt_max)
    supply = state.gbef_rate + grt + state.renewable
    net = supply - state.demand_ds - sdt
    if abs(net) < _BALANCE_TOL:
        net = 0.0
    if net >= 0.0:
        charge = min(net, state.charge_cap)
        return SlotPhysics(sdt=sdt, charge=charge, discharge=0.0,
                           waste=net - charge, unserved=0.0)
    deficit = -net
    discharge = min(deficit, state.discharge_cap)
    return SlotPhysics(sdt=sdt, charge=0.0, discharge=discharge,
                       waste=0.0, unserved=deficit - discharge)


def objective_paper(state: SlotState, grt: float, gamma: float,
                    physics: SlotPhysics) -> float:
    """P5 exactly as printed in Algorithm 1 (ablation variant)."""
    if physics.unserved > _UNSERVED_TOL:
        return float("inf")
    n_cost = state.v * state.battery_op_cost if physics.battery_active \
        else 0.0
    return (grt * (state.v * state.price_rt - state.q_hat - state.y_hat)
            + gamma * (state.q_hat ** 2 - state.q_hat * state.y_hat)
            + n_cost
            + state.v * state.waste_penalty * physics.waste
            + (state.q_hat + state.x_hat + state.y_hat)
            * (physics.charge - physics.discharge))


def objective_derived(state: SlotState, grt: float, gamma: float,
                      physics: SlotPhysics) -> float:
    """First-principles drift-plus-penalty objective (default).

    The battery margin widens the charge/discharge band past the
    Lyapunov break-even so trades clear the round-trip loss (see
    ``SmartDPSSConfig.battery_price_margin``).
    """
    if physics.unserved > _UNSERVED_TOL:
        return float("inf")
    n_cost = state.v * state.battery_op_cost if physics.battery_active \
        else 0.0
    margin_cost = (state.v * state.battery_margin
                   * (physics.charge + physics.discharge))
    return (state.v * state.price_rt * grt
            + n_cost
            + margin_cost
            + state.v * state.waste_penalty * physics.waste
            - (state.q_hat + state.y_hat) * physics.sdt
            + state.x_hat * (state.eta_c * physics.charge
                             - state.eta_d * physics.discharge))


def objective_for(mode: ObjectiveMode):
    """Map an :class:`ObjectiveMode` to its evaluator."""
    if mode is ObjectiveMode.PAPER:
        return objective_paper
    return objective_derived
