"""LP model builder and the HiGHS entry point (``CompiledLp``)."""

import numpy as np
import pytest

from repro.exceptions import (
    InfeasibleProblemError,
    SolverError,
    UnboundedProblemError,
)
from repro.solvers.batch_lp import CompiledLp
from repro.solvers.linear_program import LpModel


class TestModelBuilding:
    def test_variable_handles(self):
        model = LpModel()
        x = model.add_var("x", lb=0, ub=5, cost=1.0)
        y = model.add_var("y")
        assert x.index == 0 and y.index == 1
        assert model.n_vars == 2
        assert (x.name, y.name) == ("x", "y")

    def test_bad_bounds_rejected(self):
        model = LpModel()
        with pytest.raises(SolverError):
            model.add_var("x", lb=2.0, ub=1.0)

    def test_foreign_variable_rejected(self):
        model_a = LpModel()
        model_b = LpModel()
        x = model_a.add_var("x")
        model_b.add_var("y")
        x_fake = type(x)(index=5, name="ghost")
        with pytest.raises(SolverError):
            model_b.add_le({x_fake: 1.0}, 1.0)

    def test_duplicate_var_coefficients_sum(self):
        model = LpModel()
        x = model.add_var("x", lb=0, ub=10, cost=1.0)
        model.add_le({x: 1.0}, 4.0)
        compiled = model.compile()
        assert compiled["A_ub"][0, 0] == 1.0

    def test_empty_model_rejected(self):
        with pytest.raises(SolverError):
            LpModel().compile()

    def test_constraint_counting(self):
        model = LpModel()
        x = model.add_var("x")
        model.add_le({x: 1.0}, 1.0)
        model.add_ge({x: 1.0}, 0.0)
        model.add_eq({x: 1.0}, 0.5)
        assert (model.n_ub_rows, model.n_eq_rows) == (2, 1)


class TestHighsBackend:
    def test_simple_minimization(self):
        model = LpModel()
        x = model.add_var("x", lb=0.0, cost=2.0)
        y = model.add_var("y", lb=0.0, cost=3.0)
        model.add_ge({x: 1.0, y: 1.0}, 4.0)
        solution = CompiledLp(model).solve()
        # Cheaper variable takes the whole constraint.
        assert solution.objective == pytest.approx(8.0)
        assert solution.value(x) == pytest.approx(4.0)
        assert solution.value(y) == pytest.approx(0.0)

    def test_values_vectorized(self):
        model = LpModel()
        xs = [model.add_var(f"x{i}", lb=float(i), ub=float(i))
              for i in range(4)]
        solution = CompiledLp(model).solve()
        assert np.allclose(solution.values(xs), [0, 1, 2, 3])

    def test_infeasible_raises(self):
        model = LpModel()
        x = model.add_var("x", lb=0.0, ub=1.0)
        model.add_ge({x: 1.0}, 2.0)
        with pytest.raises(InfeasibleProblemError):
            CompiledLp(model).solve()

    def test_unbounded_raises(self):
        model = LpModel()
        model.add_var("x", lb=-np.inf, ub=np.inf, cost=1.0)
        with pytest.raises(UnboundedProblemError):
            CompiledLp(model).solve()

    def test_equality_constraints(self):
        model = LpModel()
        x = model.add_var("x", lb=0.0, cost=1.0)
        y = model.add_var("y", lb=0.0, cost=1.0)
        model.add_eq({x: 1.0, y: 1.0}, 3.0)
        model.add_eq({x: 1.0, y: -1.0}, 1.0)
        solution = CompiledLp(model).solve()
        assert solution.value(x) == pytest.approx(2.0)
        assert solution.value(y) == pytest.approx(1.0)

    def test_upper_bound_binds(self):
        model = LpModel()
        x = model.add_var("x", lb=0.0, ub=2.0, cost=-1.0)
        solution = CompiledLp(model).solve()
        assert solution.value(x) == pytest.approx(2.0)


class _FakeLinprogResult:
    def __init__(self, status, x=None, fun=None,
                 message="synthetic status"):
        self.status = status
        self.x = x
        self.fun = fun
        self.message = message


class TestStatusPaths:
    """All four linprog status codes map to typed outcomes.

    The real solver cannot be coaxed into an iteration-limit
    termination on a toy model, so ``linprog`` is monkeypatched to
    return each status code verbatim — what's under test is the
    mapping, which every public-``linprog`` solve of
    :class:`CompiledLp` routes through :func:`raise_for_status`.
    """

    @staticmethod
    def _solve(monkeypatch, result):
        model = LpModel("status-probe")
        model.add_var("x", lb=0.0, ub=1.0, cost=1.0)
        monkeypatch.setattr("scipy.optimize.linprog",
                            lambda **kwargs: result)
        return CompiledLp(model).solve()

    def test_ok_returns_solution(self, monkeypatch):
        result = _FakeLinprogResult(0, x=np.array([0.25]), fun=0.25)
        solution = self._solve(monkeypatch, result)
        assert solution.objective == pytest.approx(0.25)
        assert solution.status == "optimal"

    def test_iteration_limit_typed_and_actionable(self, monkeypatch):
        from repro.exceptions import IterationLimitError

        with pytest.raises(IterationLimitError) as excinfo:
            self._solve(monkeypatch, _FakeLinprogResult(1))
        message = str(excinfo.value)
        assert "status-probe" in message          # names the model
        assert "iteration limit" in message       # names the failure
        assert "maxiter" in message               # names the remedy
        assert excinfo.value.status == "iteration_limit"
        # The typed error is still a SolverError for broad handlers.
        assert isinstance(excinfo.value, SolverError)

    def test_infeasible_status_mapped(self, monkeypatch):
        with pytest.raises(InfeasibleProblemError) as excinfo:
            self._solve(monkeypatch, _FakeLinprogResult(2))
        assert excinfo.value.status == "infeasible"

    def test_unbounded_status_mapped(self, monkeypatch):
        with pytest.raises(UnboundedProblemError) as excinfo:
            self._solve(monkeypatch, _FakeLinprogResult(3))
        assert excinfo.value.status == "unbounded"

    def test_unknown_status_falls_back(self, monkeypatch):
        with pytest.raises(SolverError) as excinfo:
            self._solve(monkeypatch, _FakeLinprogResult(4))
        assert excinfo.value.status == "4"

    def test_missing_solution_rejected(self, monkeypatch):
        with pytest.raises(SolverError, match="no solution"):
            self._solve(monkeypatch,
                        _FakeLinprogResult(0, x=None, fun=None))

    def test_raise_for_status_ok_is_silent(self):
        from repro.solvers.batch_lp import STATUS_OK, raise_for_status

        raise_for_status(STATUS_OK, "any-model")
