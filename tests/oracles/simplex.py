"""From-scratch two-phase dense simplex (Bland's rule).

The paper solves its subproblems with "classical linear programming
approaches, e.g., simplex method" (Section IV-B).  This module provides
exactly that: a dependency-free, textbook two-phase simplex.  It is
deliberately simple and dense — its one role is to **cross-check** the
library's HiGHS entry point (:mod:`repro.solvers.batch_lp`) and the
closed-form P4/P5 solvers on small instances; the library itself never
calls it.

The general form accepted matches :class:`~repro.solvers.linear_program.LpModel`:

    min c·x   s.t.   A_ub x ≤ b_ub,  A_eq x = b_eq,  lb ≤ x ≤ ub.

Internally the problem is rewritten into computational standard form
(all variables ≥ 0, equality rows, non-negative right-hand side) via
variable shifting/splitting, slack columns and upper-bound rows; phase 1
minimizes artificial infeasibility, phase 2 the true objective.  Bland's
anti-cycling rule guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import (
    InfeasibleProblemError,
    SolverError,
    UnboundedProblemError,
)
from repro.solvers.linear_program import LpModel

_TOL = 1e-9
_MAX_ITERATIONS = 20000


@dataclass(frozen=True)
class SimplexResult:
    """Solution of a standard-form LP from the simplex core."""

    objective: float
    x: np.ndarray
    status: str


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int,
           col: int) -> None:
    """Gauss-Jordan pivot on (row, col), updating the basis."""
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > _TOL:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _simplex_core(tableau: np.ndarray, basis: np.ndarray) -> None:
    """Run simplex iterations until optimal (Bland's rule).

    ``tableau`` has the reduced cost row last and the RHS column last.
    Raises :class:`UnboundedProblemError` if a column can decrease the
    objective without any leaving row.
    """
    n_rows = tableau.shape[0] - 1
    n_cols = tableau.shape[1] - 1
    for _ in range(_MAX_ITERATIONS):
        cost_row = tableau[-1, :n_cols]
        entering = -1
        for j in range(n_cols):  # Bland: smallest eligible index.
            if cost_row[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return
        leaving = -1
        best_ratio = np.inf
        for i in range(n_rows):
            coeff = tableau[i, entering]
            if coeff > _TOL:
                ratio = tableau[i, -1] / coeff
                if (ratio < best_ratio - _TOL
                        or (abs(ratio - best_ratio) <= _TOL
                            and (leaving < 0
                                 or basis[i] < basis[leaving]))):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise UnboundedProblemError(
                "simplex: objective unbounded below", status="unbounded")
        _pivot(tableau, basis, leaving, entering)
    raise SolverError("simplex: iteration limit reached",
                      status="iteration_limit")


def _standardize(model: LpModel):
    """Rewrite the model into (A, b, c, recover) with x ≥ 0 and Ax = b.

    ``recover(y)`` maps a standard-form solution back to the original
    variable vector.
    """
    args = model.compile()
    c = np.asarray(args["c"], dtype=float)
    n = c.size
    a_ub = None if args["A_ub"] is None else args["A_ub"].toarray()
    b_ub = args["b_ub"]
    a_eq = None if args["A_eq"] is None else args["A_eq"].toarray()
    b_eq = args["b_eq"]
    bounds = args["bounds"]

    # Column construction: every original variable becomes one or two
    # non-negative standard columns plus a constant offset.
    columns: list[tuple[int, float, float]] = []  # (orig, sign, offset)
    extra_rows: list[tuple[dict[int, float], float]] = []  # ub rows
    for j, (lb, ub) in enumerate(bounds):
        if lb == -np.inf and ub == np.inf:
            columns.append((j, 1.0, 0.0))
            columns.append((j, -1.0, 0.0))
        elif lb == -np.inf:
            # x = ub − y, y ≥ 0.
            columns.append((j, -1.0, ub))
        else:
            # x = lb + y, y ≥ 0; finite ub adds a row y ≤ ub − lb.
            columns.append((j, 1.0, lb))
            if ub != np.inf:
                extra_rows.append(({len(columns) - 1: 1.0}, ub - lb))

    n_std = len(columns)

    def expand(row: np.ndarray) -> tuple[np.ndarray, float]:
        """Original-space row → standard columns + constant shift."""
        std = np.zeros(n_std)
        shift = 0.0
        for k, (orig, sign, offset) in enumerate(columns):
            coeff = row[orig]
            if coeff != 0.0:
                std[k] = coeff * sign
                shift += coeff * offset
        return std, shift

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    senses: list[str] = []
    if a_ub is not None:
        for i in range(a_ub.shape[0]):
            std, shift = expand(np.asarray(a_ub[i], dtype=float).ravel())
            rows.append(std)
            rhs.append(float(b_ub[i]) - shift)
            senses.append("le")
    for coeffs, bound in extra_rows:
        std = np.zeros(n_std)
        for k, v in coeffs.items():
            std[k] = v
        rows.append(std)
        rhs.append(bound)
        senses.append("le")
    if a_eq is not None:
        for i in range(a_eq.shape[0]):
            std, shift = expand(np.asarray(a_eq[i], dtype=float).ravel())
            rows.append(std)
            rhs.append(float(b_eq[i]) - shift)
            senses.append("eq")

    # Slack columns for ≤ rows.
    n_slack = sum(1 for s in senses if s == "le")
    m = len(rows)
    a_std = np.zeros((m, n_std + n_slack))
    b_std = np.zeros(m)
    slack = 0
    for i, (row, bound, sense) in enumerate(zip(rows, rhs, senses)):
        a_std[i, :n_std] = row
        b_std[i] = bound
        if sense == "le":
            a_std[i, n_std + slack] = 1.0
            slack += 1
    # Non-negative RHS convention.
    for i in range(m):
        if b_std[i] < 0:
            a_std[i] *= -1.0
            b_std[i] *= -1.0

    c_std = np.zeros(n_std + n_slack)
    obj_shift = 0.0
    for k, (orig, sign, offset) in enumerate(columns):
        c_std[k] = c[orig] * sign
    obj_shift = sum(c[orig] * offset for orig, _, offset in columns
                    if offset != 0.0)

    def recover(y: np.ndarray) -> np.ndarray:
        x = np.zeros(n)
        for k, (orig, sign, offset) in enumerate(columns):
            x[orig] += sign * y[k]
        for j, (_, _, _) in enumerate(columns):
            pass
        # Add per-original offsets once (not per split column).
        applied: set[int] = set()
        for orig, sign, offset in columns:
            if offset != 0.0 and orig not in applied:
                x[orig] += offset
                applied.add(orig)
        return x

    return a_std, b_std, c_std, obj_shift, recover


def solve_with_simplex(model: LpModel) -> SimplexResult:
    """Solve an :class:`LpModel` with the from-scratch simplex."""
    a, b, c, obj_shift, recover = _standardize(model)
    m, n = a.shape

    # Phase 1: artificial variables for every row.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b
    basis = np.arange(n, n + m)
    # Phase-1 reduced costs: minimize sum of artificials.
    tableau[-1, :n] = -a.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    _simplex_core(tableau, basis)
    if tableau[-1, -1] < -1e-7:
        raise InfeasibleProblemError(
            f"{model.name}: infeasible (phase-1 objective "
            f"{-tableau[-1, -1]:.3e})", status="infeasible")

    # Drive any artificial still in the basis out (degenerate rows).
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(tableau[i, j]) > _TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, basis, i, pivot_col)
    keep = [i for i in range(m) if basis[i] < n]
    if len(keep) < m:
        rows = keep + [m]
        tableau = tableau[rows]
        basis = basis[keep]
        m = len(keep)

    # Phase 2: true objective over the original + slack columns.
    tableau = np.hstack([tableau[:, :n], tableau[:, -1:]])
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for i in range(m):
        col = basis[i]
        if abs(tableau[-1, col]) > _TOL:
            tableau[-1] -= tableau[-1, col] * tableau[i]
    _simplex_core(tableau, basis)

    y = np.zeros(n)
    for i in range(m):
        y[basis[i]] = tableau[i, -1]
    x = recover(y)
    objective = float(c @ y) + obj_shift
    return SimplexResult(objective=objective, x=x, status="optimal")
