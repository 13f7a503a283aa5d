"""From-scratch simplex versus HiGHS."""

import numpy as np
import pytest

from repro.exceptions import InfeasibleProblemError, UnboundedProblemError
from repro.solvers.batch_lp import CompiledLp
from repro.solvers.linear_program import LpModel
from repro.solvers.simplex import solve_with_simplex


def assert_matches_highs(model: LpModel):
    simplex = solve_with_simplex(model)
    highs = CompiledLp(model).solve()
    assert simplex.objective == pytest.approx(highs.objective,
                                              abs=1e-7)
    return simplex


class TestBasicProblems:
    def test_bounded_minimization(self):
        model = LpModel()
        x = model.add_var("x", lb=0.0, ub=4.0, cost=-1.0)
        solution = assert_matches_highs(model)
        assert solution.x[x.index] == pytest.approx(4.0)

    def test_inequality(self):
        model = LpModel()
        x = model.add_var("x", lb=0.0, cost=2.0)
        y = model.add_var("y", lb=0.0, cost=3.0)
        model.add_ge({x: 1.0, y: 1.0}, 4.0)
        assert_matches_highs(model)

    def test_equality(self):
        model = LpModel()
        x = model.add_var("x", lb=0.0, cost=1.0)
        y = model.add_var("y", lb=0.0, cost=4.0)
        model.add_eq({x: 1.0, y: 2.0}, 6.0)
        assert_matches_highs(model)

    def test_shifted_lower_bounds(self):
        model = LpModel()
        x = model.add_var("x", lb=2.0, ub=10.0, cost=1.0)
        model.add_ge({x: 1.0}, 3.0)
        solution = assert_matches_highs(model)
        assert solution.x[0] == pytest.approx(3.0)

    def test_free_variable(self):
        model = LpModel()
        x = model.add_var("x", lb=-np.inf, ub=np.inf, cost=1.0)
        model.add_ge({x: 1.0}, -5.0)
        solution = assert_matches_highs(model)
        assert solution.x[0] == pytest.approx(-5.0)

    def test_upper_bounded_only_variable(self):
        model = LpModel()
        x = model.add_var("x", lb=-np.inf, ub=3.0, cost=-1.0)
        solution = assert_matches_highs(model)
        assert solution.x[0] == pytest.approx(3.0)

    def test_degenerate_redundant_constraints(self):
        model = LpModel()
        x = model.add_var("x", lb=0.0, cost=1.0)
        model.add_ge({x: 1.0}, 2.0)
        model.add_ge({x: 2.0}, 4.0)   # redundant
        model.add_eq({x: 1.0}, 2.0)   # binding
        assert_matches_highs(model)


class TestFailureModes:
    def test_infeasible(self):
        model = LpModel()
        x = model.add_var("x", lb=0.0, ub=1.0)
        model.add_ge({x: 1.0}, 2.0)
        with pytest.raises(InfeasibleProblemError):
            solve_with_simplex(model)

    def test_unbounded(self):
        model = LpModel()
        model.add_var("x", lb=0.0, cost=-1.0)
        with pytest.raises(UnboundedProblemError):
            solve_with_simplex(model)


class TestRandomizedCrossCheck:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_feasible_lp_matches_highs(self, seed):
        rng = np.random.default_rng(seed)
        n_vars = int(rng.integers(2, 6))
        n_cons = int(rng.integers(1, 5))
        model = LpModel(f"random-{seed}")
        xs = [model.add_var(f"x{i}", lb=0.0, ub=10.0,
                            cost=float(rng.normal()))
              for i in range(n_vars)]
        # Constraints built around a known feasible point keep the
        # instance feasible by construction.
        feasible_point = rng.uniform(0, 5, n_vars)
        for _ in range(n_cons):
            coeffs = rng.normal(size=n_vars)
            slack = abs(rng.normal()) + 0.1
            rhs = float(coeffs @ feasible_point + slack)
            model.add_le({x: float(c) for x, c in zip(xs, coeffs)},
                         rhs)
        assert_matches_highs(model)
