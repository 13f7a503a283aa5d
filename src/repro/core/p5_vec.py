"""Vectorized P5 — real-time balancing for a batch of scenarios.

Array-form twin of :mod:`repro.core.p5`: solves the per-slot
``(grt, γ)`` subproblem for ``B`` independent scenarios at once.  The
scalar solver is exact vertex enumeration over a parallel-line
subdivision of a box; the structure is identical for every scenario
(≤ 17 candidate vertices: 4 box corners, 3 breakpoint lines × 4 box
edges, 1 emergency point), so the batch solver materializes the same
candidates as ``(B,)`` arrays, evaluates the exact objective on all
scenarios per candidate, and selects each lane's row with the scan P4
shares, :func:`repro.solvers.piecewise.scan_candidates`: the scalar
rule run over the 17 rows as ``(B,)`` array steps from row 2 (the
emergency action).  There is no per-lane Python: every lane follows
the scalar rule, near ties included.

The solve runs in a :class:`P5Workspace` built once per run: every
candidate grid, mask and objective temporary is a preallocated buffer
written with ``out=`` / ``copyto`` ufunc calls, so the per-slot hot
path allocates nothing.

Exactness contract: candidate order, validity conditions, clipping and
every objective expression replicate :func:`repro.core.p5.solve_p5`,
:func:`repro.core.modes.resolve_physics` and the two objective
variants operation-for-operation, so the selected actions are
bit-identical to ``B`` scalar solves.  Candidates that the scalar
enumeration would not generate (an out-of-box intersection, a
zero-capacity breakpoint line) carry a validity mask and evaluate to
``+inf`` so they can never win the scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.control import ObjectiveMode
from repro.exceptions import ConfigurationError
from repro.solvers.piecewise import scan_candidates

#: Tolerances shared with the scalar solver (see repro.core.modes).
_UNSERVED_TOL = 1e-9
_BALANCE_TOL = 1e-12


@dataclass
class BatchSlotState:
    """Array form of :class:`repro.core.modes.SlotState`.

    Every field is a ``(B,)`` float array; semantics (normalization,
    frozen Lyapunov weights versus live physical state) are identical
    to the scalar record.
    """

    q_hat: np.ndarray
    y_hat: np.ndarray
    x_hat: np.ndarray
    v: np.ndarray
    price_rt: np.ndarray
    battery_op_cost: np.ndarray
    waste_penalty: np.ndarray
    backlog: np.ndarray
    gbef_rate: np.ndarray
    renewable: np.ndarray
    demand_ds: np.ndarray
    charge_cap: np.ndarray
    discharge_cap: np.ndarray
    eta_c: np.ndarray
    eta_d: np.ndarray
    s_dt_max: np.ndarray
    grt_cap: np.ndarray
    battery_margin: np.ndarray


#: Fixed candidate-matrix height: 4 box corners, 3 breakpoint lines ×
#: 4 box edges, and the emergency point.
N_CANDIDATES = 17


class P5Workspace:
    """Buffers for one batch's P5 vertex enumeration (``(C, B)`` grids).

    Candidate rows that never vary (zero coordinates, always-valid
    rows) are initialized once here and never written by
    :func:`_candidates`, which is what lets the candidate matrices
    persist across slots.
    """

    __slots__ = (
        "batch", "lanes",
        "grt", "gamma", "valid", "values",
        "sdt", "net", "ta", "tb", "charge", "waste", "deficit",
        "discharge", "unserved", "n_cost",
        "positive", "ma", "mb", "mc",
        "intercept", "present", "present_ok",
        "gamma_edges", "grt_edges",
        "graw", "hclip", "vraw", "vclip", "ha", "hb", "va", "vb",
        "gamma_hi", "grt_hi", "safe_slope", "base",
        "b1", "b2", "b3", "b4", "b5",
        "threshold", "out_grt", "out_gamma",
        "lane_ok", "backlog_pos",
        "rows", "flat_index",
    )

    def __init__(self, batch: int):
        self.batch = int(batch)
        c, n = N_CANDIDATES, self.batch
        self.lanes = np.arange(n)

        # Candidate matrices: zero rows / always-valid rows are set
        # here once (see class docstring).
        self.grt = np.zeros((c, n))
        self.gamma = np.zeros((c, n))
        self.valid = np.ones((c, n), dtype=bool)
        self.values = np.empty((c, n))

        # Physics / objective scratch over the candidate matrix.
        for name in ("sdt", "net", "ta", "tb", "charge", "waste",
                     "deficit", "discharge", "unserved", "n_cost"):
            setattr(self, name, np.empty((c, n)))
        for name in ("positive", "ma", "mb", "mc"):
            setattr(self, name, np.empty((c, n), dtype=bool))

        # Breakpoint-line scratch (3 intercepts x 2 edges).
        self.intercept = np.empty((3, n))
        self.present = np.ones((3, n), dtype=bool)  # row 0 stays True
        self.present_ok = np.empty((3, n), dtype=bool)
        self.gamma_edges = np.zeros((2, n))  # row 0 stays 0.0
        self.grt_edges = np.zeros((2, n))    # row 0 stays 0.0
        for name in ("graw", "hclip", "vraw", "vclip"):
            setattr(self, name, np.empty((2, 3, n)))
        for name in ("ha", "hb", "va", "vb"):
            setattr(self, name, np.empty((2, 3, n), dtype=bool))

        # Per-lane scratch.
        for name in ("gamma_hi", "grt_hi", "safe_slope", "base",
                     "b1", "b2", "b3", "b4", "b5",
                     "threshold", "out_grt", "out_gamma"):
            setattr(self, name, np.empty(n))
        for name in ("lane_ok", "backlog_pos"):
            setattr(self, name, np.empty(n, dtype=bool))
        self.rows = np.empty(n, dtype=np.intp)
        self.flat_index = np.empty(n, dtype=np.intp)


def _candidates(state: BatchSlotState, w: P5Workspace) -> None:
    """The scalar enumeration's candidates, written as ``(17, B)``.

    Rows follow exactly the order ``solve_p5`` builds them: 4 box
    corners, then for each net-surplus intercept (0, charge cap,
    −discharge cap) its intersections with the two horizontal and two
    vertical box edges, then the emergency candidate.  Per-scenario
    conditionals of the scalar code (an intercept only existing when
    its capacity is positive, an intersection only kept when inside
    the box) become entries of the validity mask.

    Writes ``w.grt`` / ``w.gamma`` / ``w.valid``; the rows that never
    vary were initialized at workspace creation and are not written.
    """
    # gamma_hi = where(backlog <= 0, 1, min(1, s_dt_max / safe_backlog));
    # a denormal-tiny backlog overflows the division to +inf exactly as
    # the scalar code's does, and the min() clamp makes the warning moot.
    np.greater(state.backlog, 0.0, out=w.backlog_pos)
    np.copyto(w.b1, 1.0)
    np.copyto(w.b1, state.backlog, where=w.backlog_pos)
    with np.errstate(over="ignore"):
        np.divide(state.s_dt_max, w.b1, out=w.gamma_hi)
    np.minimum(w.gamma_hi, 1.0, out=w.gamma_hi)
    np.less_equal(state.backlog, 0.0, out=w.lane_ok)
    np.copyto(w.gamma_hi, 1.0, where=w.lane_ok)

    np.maximum(state.grt_cap, 0.0, out=w.grt_hi)

    # slope_ok / safe_slope (slope is the backlog itself).
    np.absolute(state.backlog, out=w.b2)
    np.greater(w.b2, 1e-15, out=w.lane_ok)
    np.copyto(w.safe_slope, 1.0)
    np.copyto(w.safe_slope, state.backlog, where=w.lane_ok)

    np.add(state.gbef_rate, state.renewable, out=w.base)
    np.subtract(w.base, state.demand_ds, out=w.base)

    np.copyto(w.gamma[1], w.gamma_hi)
    np.copyto(w.grt[2], w.grt_hi)
    np.copyto(w.grt[3], w.grt_hi)
    np.copyto(w.gamma[3], w.gamma_hi)

    # The three breakpoint lines as one (3, B) block: intercepts at net
    # surplus 0, +charge cap, −discharge cap (rows 2-3 only "present"
    # when the capacity is positive).
    np.subtract(0.0, w.base, out=w.intercept[0])
    np.subtract(state.charge_cap, w.base, out=w.intercept[1])
    np.negative(state.discharge_cap, out=w.intercept[2])
    np.subtract(w.intercept[2], w.base, out=w.intercept[2])
    np.greater(state.charge_cap, 0.0, out=w.present[1])
    np.greater(state.discharge_cap, 0.0, out=w.present[2])

    # Intersections with the two horizontal edges (γ = 0, γ = γ_hi) —
    # rows 4+4i and 5+4i for intercept i — as one (2, 3, B) block
    # (edge × intercept × scenario); the γ = 0 row stays 0 by init.
    np.copyto(w.gamma_edges[1], w.gamma_hi)
    np.multiply(state.backlog, w.gamma_edges[:, None, :], out=w.graw)
    np.add(w.graw, w.intercept, out=w.graw)
    np.greater_equal(w.graw, -1e-12, out=w.ha)
    np.logical_and(w.present, w.ha, out=w.ha)
    np.add(w.grt_hi, 1e-12, out=w.b3)
    np.less_equal(w.graw, w.b3, out=w.hb)
    np.logical_and(w.ha, w.hb, out=w.ha)
    np.maximum(w.graw, 0.0, out=w.hclip)
    np.minimum(w.hclip, w.grt_hi, out=w.hclip)
    w.valid[4:16:4] = w.ha[0]
    w.valid[5:16:4] = w.ha[1]
    w.grt[4:16:4] = w.hclip[0]
    w.grt[5:16:4] = w.hclip[1]
    w.gamma[5:16:4] = w.gamma_hi

    # Likewise the vertical edges (grt = 0, grt = grt_hi) for rows 6+4i
    # and 7+4i; the grt = 0 row stays 0 by init.
    np.copyto(w.grt_edges[1], w.grt_hi)
    np.subtract(w.grt_edges[:, None, :], w.intercept, out=w.vraw)
    np.divide(w.vraw, w.safe_slope, out=w.vraw)
    np.logical_and(w.present, w.lane_ok, out=w.present_ok)
    np.greater_equal(w.vraw, -1e-12, out=w.va)
    np.logical_and(w.present_ok, w.va, out=w.va)
    np.add(w.gamma_hi, 1e-12, out=w.b3)
    np.less_equal(w.vraw, w.b3, out=w.vb)
    np.logical_and(w.va, w.vb, out=w.va)
    np.maximum(w.vraw, 0.0, out=w.vclip)
    np.minimum(w.vclip, w.gamma_hi, out=w.vclip)
    w.valid[6:16:4] = w.va[0]
    w.valid[7:16:4] = w.va[1]
    w.gamma[6:16:4] = w.vclip[0]
    w.gamma[7:16:4] = w.vclip[1]
    w.grt[7:16:4] = w.grt_hi

    # Emergency candidate.
    np.subtract(state.demand_ds, state.gbef_rate, out=w.b3)
    np.subtract(w.b3, state.renewable, out=w.b3)
    np.subtract(w.b3, state.discharge_cap, out=w.b3)
    np.maximum(w.b3, 0.0, out=w.b3)
    np.minimum(w.b3, w.grt_hi, out=w.grt[16])


def _objective(state: BatchSlotState, mode: ObjectiveMode,
               w: P5Workspace) -> None:
    """Exact objective per candidate → ``w.values``.

    Consumes the candidate matrices in ``w``; the physics resolution of
    :func:`repro.core.modes.resolve_physics` runs first, in place, with
    the scalar's operations in the identical order.  Invalid or
    infeasible candidates evaluate to ``+inf``.
    """
    grt, gamma = w.grt, w.gamma

    # --- resolve_physics, in place -----------------------------------
    np.multiply(gamma, state.backlog, out=w.sdt)
    np.minimum(w.sdt, state.s_dt_max, out=w.sdt)
    np.add(grt, state.gbef_rate, out=w.net)
    np.add(w.net, state.renewable, out=w.net)
    np.subtract(w.net, state.demand_ds, out=w.net)
    np.subtract(w.net, w.sdt, out=w.net)
    np.absolute(w.net, out=w.ta)
    np.less(w.ta, _BALANCE_TOL, out=w.ma)
    np.copyto(w.net, 0.0, where=w.ma)
    np.greater_equal(w.net, 0.0, out=w.positive)
    np.minimum(w.net, state.charge_cap, out=w.ta)
    np.copyto(w.charge, 0.0)
    np.copyto(w.charge, w.ta, where=w.positive)
    np.subtract(w.net, w.charge, out=w.ta)
    np.copyto(w.waste, 0.0)
    np.copyto(w.waste, w.ta, where=w.positive)
    np.negative(w.net, out=w.deficit)
    np.minimum(w.deficit, state.discharge_cap, out=w.ta)
    np.copyto(w.discharge, w.ta)
    np.copyto(w.discharge, 0.0, where=w.positive)
    np.subtract(w.deficit, w.discharge, out=w.ta)
    np.copyto(w.unserved, w.ta)
    np.copyto(w.unserved, 0.0, where=w.positive)

    # --- objective, in place -----------------------------------------
    np.greater(w.charge, 0.0, out=w.ma)
    np.greater(w.discharge, 0.0, out=w.mb)
    np.logical_or(w.ma, w.mb, out=w.ma)
    np.multiply(state.v, state.battery_op_cost, out=w.b1)
    np.copyto(w.n_cost, 0.0)
    np.copyto(w.n_cost, w.b1, where=w.ma)

    values = w.values
    if mode is ObjectiveMode.PAPER:
        np.multiply(state.v, state.price_rt, out=w.b1)
        np.subtract(w.b1, state.q_hat, out=w.b1)
        np.subtract(w.b1, state.y_hat, out=w.b1)
        np.power(state.q_hat, 2, out=w.b2)
        np.multiply(state.q_hat, state.y_hat, out=w.b3)
        np.subtract(w.b2, w.b3, out=w.b2)
        np.add(state.q_hat, state.x_hat, out=w.b3)
        np.add(w.b3, state.y_hat, out=w.b3)
        np.multiply(state.v, state.waste_penalty, out=w.b4)
        np.multiply(grt, w.b1, out=values)
        np.multiply(gamma, w.b2, out=w.ta)
        np.add(values, w.ta, out=values)
        np.add(values, w.n_cost, out=values)
        np.multiply(w.waste, w.b4, out=w.ta)
        np.add(values, w.ta, out=values)
        np.subtract(w.charge, w.discharge, out=w.ta)
        np.multiply(w.ta, w.b3, out=w.ta)
        np.add(values, w.ta, out=values)
    else:
        np.multiply(state.v, state.battery_margin, out=w.b2)
        np.multiply(state.v, state.price_rt, out=w.b3)
        np.multiply(state.v, state.waste_penalty, out=w.b4)
        np.add(state.q_hat, state.y_hat, out=w.b5)
        np.multiply(grt, w.b3, out=values)
        np.add(values, w.n_cost, out=values)
        np.add(w.charge, w.discharge, out=w.ta)
        np.multiply(w.ta, w.b2, out=w.ta)
        np.add(values, w.ta, out=values)
        np.multiply(w.waste, w.b4, out=w.ta)
        np.add(values, w.ta, out=values)
        np.multiply(w.sdt, w.b5, out=w.ta)
        np.subtract(values, w.ta, out=values)
        np.multiply(w.charge, state.eta_c, out=w.ta)
        np.multiply(w.discharge, state.eta_d, out=w.tb)
        np.subtract(w.ta, w.tb, out=w.ta)
        np.multiply(w.ta, state.x_hat, out=w.ta)
        np.add(values, w.ta, out=values)

    np.greater(w.unserved, _UNSERVED_TOL, out=w.mb)
    np.logical_not(w.valid, out=w.mc)
    np.logical_or(w.mc, w.mb, out=w.mc)
    np.copyto(values, np.inf, where=w.mc)


def solve_p5_batch(state: BatchSlotState, mode: ObjectiveMode,
                   work: P5Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Solve P5 for every scenario; returns ``(grt, gamma)`` arrays.

    The physics and objective evaluate once on the whole ``(17, B)``
    candidate matrix (elementwise, so bit-identical per lane to the
    scalar evaluations); the selection scan then picks a row per lane
    with the scalar tie-breaking rule.  Scenarios where no candidate
    is feasible fall back to the scalar solver's emergency action (buy
    everything, serve nothing deferrable).

    ``work`` is a :class:`P5Workspace` sized for this batch; the
    returned arrays are workspace-owned and valid until the next call.
    """
    n = state.backlog.shape[0]
    if work.batch != n:
        raise ConfigurationError(
            f"workspace sized for {work.batch} scenarios cannot serve a "
            f"batch of {n}")
    w = work
    _candidates(state, w)
    _objective(state, mode, w)

    # A lane where no value is finite keeps row 2, which is exactly the
    # emergency fallback action (grt_hi, 0) of the scalar solver.
    scan_candidates(w.values, 2, w.ta, w.threshold, w.rows, w.lane_ok)
    np.multiply(w.rows, n, out=w.flat_index)
    np.add(w.flat_index, w.lanes, out=w.flat_index)
    np.take(w.grt.reshape(-1), w.flat_index, out=w.out_grt)
    np.take(w.gamma.reshape(-1), w.flat_index, out=w.out_gamma)
    return w.out_grt, w.out_gamma
