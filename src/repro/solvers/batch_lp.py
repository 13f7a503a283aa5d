"""The LP entry point: one compiled constraint structure, many solves.

Every LP in the library (the offline-optimal and lookahead baselines')
is an :class:`~repro.solvers.linear_program.LpModel` solved through
:class:`CompiledLp`, whose status codes map to typed errors in
:func:`raise_for_status`.

The offline-optimal baseline solves the *same* LP for every scenario
of a fleet: the constraint pattern, variable bounds and structural
coefficients depend only on the system configuration, while the
scenario traces enter exclusively through the objective vector and a
few right-hand-side entries.  :class:`CompiledLp` exploits that
block-diagonal structure: compile the sparsity pattern once, then
solve each scenario by stamping its numeric vectors — no per-scenario
model construction, no per-call argument re-validation.

Two solve configurations exist, chosen by the caller per instance:

``fast=False`` (default)
    The public ``scipy.optimize.linprog`` call (``method="highs"``).
    This is the reference path; pinned figure metrics (golden
    fixtures) are produced through it.

``fast=True``
    An in-process HiGHS session via scipy's private ``_highspy``
    bindings, skipping ~2 ms of per-call argument parsing that
    dominates small instances.  Options are fixed (dual simplex,
    presolve off — presolve setup costs more than it saves on tiny
    LPs) and every instance is solved *cold* (``clearSolver`` between
    runs), so results are deterministic and independent of solve
    order: instance ``b`` returns bit-identical ``x`` whether solved
    alone or mid-batch.  When the private bindings are unavailable the
    fast flag silently degrades to the public path (still
    deterministic, just slower), keeping scalar/batch equivalence
    intact because *both* sides consult the same dispatch.

:func:`solve_block_diagonal` additionally assembles ``B`` instances
into one literal block-diagonal LP and solves it in a single call —
slower than the stamped loop (HiGHS cannot exploit the separability),
but an independent cross-check of the stamping logic used by the
equivalence tests.

Importing this module loads no scipy: ``scipy.optimize`` and
``scipy.sparse`` load on the first solve, and the private bindings
are probed once, on first use (:func:`fast_path_available`).  A
process pool forked after :func:`load_scipy` inherits both.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.exceptions import (
    InfeasibleProblemError,
    IterationLimitError,
    SolverError,
    UnboundedProblemError,
)
from repro.solvers.linear_program import LpModel, LpSolution

#: scipy linprog status codes.
STATUS_OK = 0
STATUS_ITERATION_LIMIT = 1
STATUS_INFEASIBLE = 2
STATUS_UNBOUNDED = 3


def raise_for_status(status: int, model_name: str,
                     message: str = "") -> None:
    """Map a scipy-linprog status code onto the typed error hierarchy.

    Returns silently for ``STATUS_OK``; every other code raises.  Both
    solve paths of :class:`CompiledLp` (and
    :func:`solve_block_diagonal`) route through here, so a given
    failure mode produces one exception type everywhere.
    """
    if status == STATUS_OK:
        return
    if status == STATUS_INFEASIBLE:
        raise InfeasibleProblemError(
            f"{model_name}: LP infeasible ({message})",
            status="infeasible")
    if status == STATUS_UNBOUNDED:
        raise UnboundedProblemError(
            f"{model_name}: LP unbounded ({message})",
            status="unbounded")
    if status == STATUS_ITERATION_LIMIT:
        raise IterationLimitError(
            f"{model_name}: simplex iteration limit reached before "
            f"optimality ({message}); raise linprog's "
            f"maxiter/simplex_iteration_limit or shrink the horizon",
            status="iteration_limit")
    raise SolverError(
        f"{model_name}: HiGHS failed ({message})", status=str(status))


def _linprog_solution(result, model_name: str) -> LpSolution:
    """A public ``linprog`` result as an :class:`LpSolution` (or raise)."""
    raise_for_status(result.status, model_name, result.message)
    if result.x is None:
        raise SolverError(
            f"{model_name}: HiGHS returned no solution "
            f"({result.message})", status=str(result.status))
    return LpSolution(objective=float(result.fun), x=result.x,
                      status="optimal")


@lru_cache(maxsize=None)
def _highs_bindings():
    """``(core, replace_inf, status_map)`` of scipy's private HiGHS
    bindings, or ``None`` where they are gone; probed once per process.

    ``status_map`` takes a HighsModelStatus to a linprog status code
    (anything unmapped raises the generic :class:`SolverError`).
    """
    try:  # scipy-private; guarded — versions move these.
        from scipy.optimize._highspy import _core
        from scipy.optimize._linprog_highs import _replace_inf
    except ImportError:  # pragma: no cover - depends on scipy build
        return None
    status = _core.HighsModelStatus
    return _core, _replace_inf, {
        int(status.kOptimal): STATUS_OK,
        int(status.kInfeasible): STATUS_INFEASIBLE,
        int(status.kUnbounded): STATUS_UNBOUNDED,
        int(status.kIterationLimit): STATUS_ITERATION_LIMIT,
    }


def fast_path_available() -> bool:
    """Whether the in-process HiGHS fast path can be used."""
    return _highs_bindings() is not None


def load_scipy() -> None:
    """Import what a solve needs now, not on the first solve: a process
    pool forked afterwards inherits it instead of importing per worker."""
    import scipy.optimize  # noqa: F401
    import scipy.sparse  # noqa: F401

    _highs_bindings()


class CompiledLp:
    """One LP structure, compiled once, solved for many numeric instances.

    Built from an :class:`LpModel` whose sparsity pattern is
    instance-independent.  :meth:`solve` takes optional overrides for
    the cost vector and the two right-hand sides; omitted vectors keep
    the compiled model's numerics, so a ``CompiledLp`` built from a
    fully-populated model is also just a fast re-solvable LP.
    """

    def __init__(self, model: LpModel):
        self.name = model.name
        args = model.compile(use_sparse=True)
        self._c = np.asarray(args["c"], dtype=float)
        self._A_ub = args["A_ub"]
        self._A_eq = args["A_eq"]
        self._b_ub = (np.asarray(args["b_ub"], dtype=float)
                      if args["b_ub"] is not None else np.zeros(0))
        self._b_eq = (np.asarray(args["b_eq"], dtype=float)
                      if args["b_eq"] is not None else np.zeros(0))
        self._bounds = args["bounds"]
        self.n_cols = self._c.size
        self.n_ub_rows = self._b_ub.size
        self.n_eq_rows = self._b_eq.size
        self._session = None  # lazy fast-path state

    # ------------------------------------------------------------------
    # Public path (reference): scipy linprog, library defaults
    # ------------------------------------------------------------------

    def _solve_linprog(self, c, b_ub, b_eq) -> LpSolution:
        from scipy.optimize import linprog

        result = linprog(
            c=c,
            A_ub=self._A_ub,
            b_ub=(b_ub if b_ub.size else None),
            A_eq=self._A_eq,
            b_eq=(b_eq if b_eq.size else None),
            bounds=self._bounds,
            method="highs",
        )
        return _linprog_solution(result, self.name)

    # ------------------------------------------------------------------
    # Fast path: in-process HiGHS, fixed deterministic options
    # ------------------------------------------------------------------

    def _fast_session(self):
        """Lazily assemble the reusable HiGHS objects.

        The constraint matrix is stacked ``[A_ub; A_eq]`` in CSC form
        exactly as scipy's wrapper stacks it, so row indices (and the
        solver's pivoting) match the public path's layout.
        """
        from scipy import sparse

        core, replace_inf, _ = _highs_bindings()
        blocks = [m for m in (self._A_ub, self._A_eq) if m is not None]
        stacked = sparse.vstack(blocks) if len(blocks) > 1 else blocks[0]
        matrix = sparse.csc_array(stacked)
        n_rows = self.n_ub_rows + self.n_eq_rows

        bounds = np.asarray(self._bounds, dtype=float)
        col_lower = replace_inf(bounds[:, 0].copy())
        col_upper = replace_inf(bounds[:, 1].copy())

        options = core.HighsOptions()
        options.output_flag = False
        options.log_to_console = False
        # Dual simplex matches the public wrapper's choice; presolve
        # off is the small-instance speedup this path exists for.
        options.simplex_strategy = int(
            core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
        options.presolve = "off"

        highs = core._Highs()
        highs.passOptions(options)

        lp = core.HighsLp()
        lp.num_col_ = self.n_cols
        lp.num_row_ = n_rows
        lp.col_lower_ = col_lower
        lp.col_upper_ = col_upper
        lp.a_matrix_.format_ = core.MatrixFormat.kColwise
        lp.a_matrix_.num_col_ = self.n_cols
        lp.a_matrix_.num_row_ = n_rows
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data
        # lhs of <= rows is -inf; equality rows have lhs == rhs.
        lhs = np.full(n_rows, -np.inf)
        lhs[self.n_ub_rows:] = self._b_eq
        rhs = np.concatenate([self._b_ub, self._b_eq])
        self._session = (highs, lp, lhs, rhs)
        return self._session

    def _solve_fast(self, c, b_ub, b_eq) -> LpSolution:
        _, replace_inf, status_map = _highs_bindings()
        highs, lp, lhs_template, rhs_template = (
            self._session or self._fast_session())
        lhs = lhs_template.copy()
        rhs = rhs_template.copy()
        lhs[self.n_ub_rows:] = b_eq
        rhs[:self.n_ub_rows] = b_ub
        rhs[self.n_ub_rows:] = b_eq
        lp.col_cost_ = c
        lp.row_lower_ = replace_inf(lhs)
        lp.row_upper_ = replace_inf(rhs)
        highs.passModel(lp)
        # Cold solve per instance: no basis/state carries over, so the
        # result is independent of what was solved before it.
        highs.clearSolver()
        highs.run()
        status = int(highs.getModelStatus())
        code = status_map.get(status)
        if code is None:
            raise SolverError(
                f"{self.name}: HiGHS failed (model status {status})",
                status=str(status))
        raise_for_status(code, self.name,
                         str(highs.modelStatusToString(
                             highs.getModelStatus())))
        x = np.array(highs.getSolution().col_value)
        return LpSolution(objective=float(highs.getObjectiveValue()),
                          x=x, status="optimal")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def solve(self, c: np.ndarray | None = None,
              b_ub: np.ndarray | None = None,
              b_eq: np.ndarray | None = None,
              fast: bool = False, telemetry=None) -> LpSolution:
        """Solve one numeric instance of the compiled structure.

        ``c`` / ``b_ub`` / ``b_eq`` override the compiled vectors
        (full-length replacements, typically template copies with a
        few stamped entries); ``None`` keeps the compiled numerics.
        ``fast`` selects the in-process configuration documented in
        the module docstring — callers must use one consistent value
        per structure so repeated solves stay comparable bitwise.
        ``telemetry`` (optional) times the solve under the
        ``lp_solve`` span; the solution is unaffected.
        """
        c = self._c if c is None else np.asarray(c, dtype=float)
        b_ub = self._b_ub if b_ub is None else np.asarray(b_ub,
                                                          dtype=float)
        b_eq = self._b_eq if b_eq is None else np.asarray(b_eq,
                                                          dtype=float)
        if c.shape != self._c.shape:
            raise SolverError(
                f"{self.name}: cost override has shape {c.shape}, "
                f"structure has {self._c.shape}")
        if b_ub.shape != self._b_ub.shape:
            raise SolverError(
                f"{self.name}: b_ub override has shape {b_ub.shape}, "
                f"structure has {self._b_ub.shape}")
        if b_eq.shape != self._b_eq.shape:
            raise SolverError(
                f"{self.name}: b_eq override has shape {b_eq.shape}, "
                f"structure has {self._b_eq.shape}")
        if telemetry is None or not telemetry.enabled:
            if fast and fast_path_available():
                return self._solve_fast(c, b_ub, b_eq)
            return self._solve_linprog(c, b_ub, b_eq)
        with telemetry.span("lp_solve"):
            if fast and fast_path_available():
                return self._solve_fast(c, b_ub, b_eq)
            return self._solve_linprog(c, b_ub, b_eq)


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
