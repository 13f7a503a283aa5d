"""Property-based tests: from-scratch simplex versus HiGHS.

Random LPs built around a known feasible point keep instances feasible
by construction; the two solvers must agree on the optimum.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.solvers.batch_lp import CompiledLp
from repro.solvers.linear_program import LpModel
from oracles.simplex import solve_with_simplex

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@st.composite
def feasible_lp(draw):
    n_vars = draw(st.integers(min_value=1, max_value=5))
    n_cons = draw(st.integers(min_value=0, max_value=4))
    model = LpModel("hypothesis")
    costs = [draw(finite) for _ in range(n_vars)]
    xs = [model.add_var(f"x{i}", lb=0.0, ub=8.0, cost=costs[i])
          for i in range(n_vars)]
    point = [draw(st.floats(min_value=0.0, max_value=4.0))
             for _ in range(n_vars)]
    for _ in range(n_cons):
        coeffs = [draw(finite) for _ in range(n_vars)]
        slack = draw(st.floats(min_value=0.1, max_value=3.0))
        rhs = sum(c * p for c, p in zip(coeffs, point)) + slack
        model.add_le({x: c for x, c in zip(xs, coeffs)}, rhs)
    return model


@settings(max_examples=100, deadline=None)
@given(model=feasible_lp())
def test_simplex_matches_highs_on_random_lps(model):
    simplex = solve_with_simplex(model)
    highs = CompiledLp(model).solve()
    assert simplex.objective == pytest.approx(highs.objective,
                                              abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(model=feasible_lp())
def test_simplex_solution_is_feasible(model):
    solution = solve_with_simplex(model)
    compiled = model.compile()
    x = solution.x
    for (lb, ub), value in zip(compiled["bounds"], x):
        assert lb - 1e-7 <= value <= ub + 1e-7
    if compiled["A_ub"] is not None:
        residual = compiled["A_ub"] @ x - compiled["b_ub"]
        assert np.all(residual <= 1e-6)
    if compiled["A_eq"] is not None:
        residual = compiled["A_eq"] @ x - compiled["b_eq"]
        assert np.all(np.abs(residual) <= 1e-6)


@settings(max_examples=100, deadline=None)
@given(model=feasible_lp())
def test_simplex_objective_matches_solution_vector(model):
    solution = solve_with_simplex(model)
    compiled = model.compile()
    recomputed = float(compiled["c"] @ solution.x)
    assert solution.objective == pytest.approx(recomputed, abs=1e-7)
