"""Named-variable linear program builder.

The offline-optimal baseline builds an LP with thousands of structured
variables (one battery level, one service decision, ... per fine slot).
Indexing raw matrix columns by hand is error-prone, so :class:`LpModel`
lets callers build the program with names::

    model = LpModel("offline")
    g = [model.add_var(f"gbef[{k}]", lb=0, ub=g_cap, cost=plt[k])
         for k in range(K)]
    model.add_eq({g[0]: 1.0, b[1]: -1.0}, rhs=...)

and compiles to the sparse arrays HiGHS consumes
(:class:`~repro.solvers.batch_lp.CompiledLp`) or the dense ones of the
reference simplex (:mod:`repro.solvers.simplex`); only the sparse
compile imports scipy.  Solutions map back to names (:meth:`LpSolution.value`, or vectorized
:meth:`LpSolution.values`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SolverError


@dataclass(frozen=True)
class LpVar:
    """Handle for one LP variable (hashable, usable as a dict key)."""

    index: int
    name: str

    def __repr__(self) -> str:
        return f"LpVar({self.name})"


class LpModel:
    """Incrementally built LP:  min c·x  s.t.  A_ub x ≤ b_ub, A_eq x = b_eq.

    Variables carry bounds and objective coefficients at creation;
    constraints are sparse dictionaries ``{var: coeff}``.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self._costs: list[float] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._names: list[str] = []
        self._ub_rows: list[dict[int, float]] = []
        self._ub_rhs: list[float] = []
        self._eq_rows: list[dict[int, float]] = []
        self._eq_rhs: list[float] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        """Number of variables added so far."""
        return len(self._costs)

    @property
    def n_constraints(self) -> int:
        """Total constraint rows (inequalities + equalities)."""
        return len(self._ub_rows) + len(self._eq_rows)

    @property
    def n_ub_rows(self) -> int:
        """Inequality rows added so far (the next ``add_le`` index)."""
        return len(self._ub_rows)

    @property
    def n_eq_rows(self) -> int:
        """Equality rows added so far (the next ``add_eq`` index)."""
        return len(self._eq_rows)

    def add_var(self, name: str, lb: float = 0.0,
                ub: float = np.inf, cost: float = 0.0) -> LpVar:
        """Add a variable with bounds ``[lb, ub]`` and objective cost."""
        if lb > ub:
            raise SolverError(
                f"variable {name}: lower bound {lb} exceeds upper {ub}")
        var = LpVar(index=self.n_vars, name=name)
        self._costs.append(float(cost))
        self._lower.append(float(lb))
        self._upper.append(float(ub))
        self._names.append(name)
        return var

    def _row(self, coeffs: dict[LpVar, float]) -> dict[int, float]:
        row: dict[int, float] = {}
        for var, coeff in coeffs.items():
            if not isinstance(var, LpVar):
                raise SolverError(
                    f"constraint keys must be LpVar, got {type(var)}")
            if var.index >= self.n_vars:
                raise SolverError(f"variable {var.name} not in this model")
            if coeff != 0.0:
                row[var.index] = row.get(var.index, 0.0) + float(coeff)
        return row

    def add_le(self, coeffs: dict[LpVar, float], rhs: float) -> None:
        """Add ``Σ coeff·var ≤ rhs``."""
        self._ub_rows.append(self._row(coeffs))
        self._ub_rhs.append(float(rhs))

    def add_ge(self, coeffs: dict[LpVar, float], rhs: float) -> None:
        """Add ``Σ coeff·var ≥ rhs`` (stored as the negated ≤ row)."""
        negated = {var: -coeff for var, coeff in coeffs.items()}
        self.add_le(negated, -rhs)

    def add_eq(self, coeffs: dict[LpVar, float], rhs: float) -> None:
        """Add ``Σ coeff·var = rhs``."""
        self._eq_rows.append(self._row(coeffs))
        self._eq_rhs.append(float(rhs))

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _rows_to_matrix(self, rows: list[dict[int, float]],
                        use_sparse: bool):
        if not rows:
            return None
        if use_sparse:
            from scipy import sparse

            data, row_idx, col_idx = [], [], []
            for i, row in enumerate(rows):
                for j, coeff in row.items():
                    data.append(coeff)
                    row_idx.append(i)
                    col_idx.append(j)
            return sparse.csr_matrix(
                (data, (row_idx, col_idx)), shape=(len(rows), self.n_vars))
        matrix = np.zeros((len(rows), self.n_vars))
        for i, row in enumerate(rows):
            for j, coeff in row.items():
                matrix[i, j] = coeff
        return matrix

    def compile(self, use_sparse: bool = True) -> dict:
        """Produce the ``scipy.optimize.linprog``-style argument dict."""
        if self.n_vars == 0:
            raise SolverError("cannot compile an empty model")
        return {
            "c": np.asarray(self._costs),
            "A_ub": self._rows_to_matrix(self._ub_rows, use_sparse),
            "b_ub": (np.asarray(self._ub_rhs) if self._ub_rhs else None),
            "A_eq": self._rows_to_matrix(self._eq_rows, use_sparse),
            "b_eq": (np.asarray(self._eq_rhs) if self._eq_rhs else None),
            "bounds": list(zip(self._lower, self._upper)),
        }

    def variable_names(self) -> list[str]:
        """Names in column order (for debugging solver output)."""
        return list(self._names)


@dataclass(frozen=True)
class LpSolution:
    """A solved LP: objective value plus the variable assignment."""

    objective: float
    x: np.ndarray
    status: str

    def value(self, var: LpVar) -> float:
        """Value of one variable."""
        return float(self.x[var.index])

    def values(self, variables: list[LpVar]) -> np.ndarray:
        """Values of a list of variables, in order."""
        return np.asarray([self.x[v.index] for v in variables])
