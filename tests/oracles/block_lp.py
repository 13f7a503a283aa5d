"""``B`` LP instances solved as one literal block-diagonal program.

:class:`~repro.solvers.batch_lp.CompiledLp` solves each scenario of a
fleet by stamping its vectors into one compiled structure.  Assembling
the ``B`` instances into ``blockdiag(A, ..., A)`` and solving them in a
single call is slower (HiGHS cannot exploit the separability), but it
is an independent cross-check of that stamping logic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.solvers.batch_lp import CompiledLp, _linprog_solution
from repro.solvers.linear_program import LpSolution


def solve_block_diagonal(compiled: CompiledLp,
                         instances: Sequence[dict]) -> list[LpSolution]:
    """Solve ``B`` instances as one literal block-diagonal LP.

    Each instance dict may carry ``c`` / ``b_ub`` / ``b_eq`` overrides
    (as in :meth:`CompiledLp.solve`).  The assembled program is
    ``blockdiag(A, ..., A)`` with concatenated vectors, solved by one
    public ``linprog`` call and split back into per-instance
    solutions.  This is the cross-check mode: HiGHS may land on a
    different vertex of a degenerate block than the per-instance
    solve, so only objectives (not ``x``) are comparable, and only to
    solver tolerance.
    """
    if not instances:
        return []
    from scipy import sparse
    from scipy.optimize import linprog

    n_b = len(instances)

    def stacked(name, default):
        parts = []
        for instance in instances:
            override = instance.get(name)
            parts.append(default if override is None
                         else np.asarray(override, dtype=float))
        return np.concatenate(parts) if default.size else None

    c = stacked("c", compiled._c)
    b_ub = stacked("b_ub", compiled._b_ub)
    b_eq = stacked("b_eq", compiled._b_eq)
    A_ub = (sparse.block_diag([compiled._A_ub] * n_b, format="csr")
            if compiled._A_ub is not None else None)
    A_eq = (sparse.block_diag([compiled._A_eq] * n_b, format="csr")
            if compiled._A_eq is not None else None)
    result = linprog(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                     bounds=list(compiled._bounds) * n_b,
                     method="highs")
    x_all = _linprog_solution(result, compiled.name).x
    solutions = []
    width = compiled.n_cols
    for index in range(n_b):
        x = x_all[index * width:(index + 1) * width]
        objective = float(np.dot(
            c[index * width:(index + 1) * width], x))
        solutions.append(LpSolution(objective=objective, x=x,
                                    status="optimal"))
    return solutions
