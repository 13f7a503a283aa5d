"""Property-based tests: P5 exactness and safety.

The vertex enumeration claims *exact* optimality over the candidate
box; hypothesis probes it against random interior points for both
objective variants, and checks the returned action never violates a
constraint.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.config.control import ObjectiveMode
from repro.core.modes import SlotState, objective_for, resolve_physics
from repro.core.p5 import solve_p5

slot_states = st.builds(
    SlotState,
    q_hat=st.floats(min_value=0.0, max_value=20.0),
    y_hat=st.floats(min_value=0.0, max_value=20.0),
    x_hat=st.floats(min_value=-10.0, max_value=3.0),
    v=st.floats(min_value=0.05, max_value=5.0),
    price_rt=st.floats(min_value=0.5, max_value=20.0),
    battery_op_cost=st.floats(min_value=0.0, max_value=0.05),
    waste_penalty=st.floats(min_value=0.0, max_value=0.5),
    backlog=st.floats(min_value=0.0, max_value=10.0),
    gbef_rate=st.floats(min_value=0.0, max_value=2.0),
    renewable=st.floats(min_value=0.0, max_value=2.0),
    demand_ds=st.floats(min_value=0.0, max_value=2.0),
    charge_cap=st.floats(min_value=0.0, max_value=0.6),
    discharge_cap=st.floats(min_value=0.0, max_value=0.6),
    eta_c=st.floats(min_value=0.5, max_value=1.0),
    eta_d=st.floats(min_value=1.0, max_value=1.6),
    s_dt_max=st.floats(min_value=0.1, max_value=3.0),
    grt_cap=st.floats(min_value=0.0, max_value=2.5),
    battery_margin=st.floats(min_value=0.0, max_value=0.5),
)

unit_points = st.tuples(st.floats(min_value=0.0, max_value=1.0),
                        st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=200, deadline=None)
@given(state=slot_states, probes=st.lists(unit_points, min_size=5,
                                          max_size=15),
       mode=st.sampled_from([ObjectiveMode.DERIVED,
                             ObjectiveMode.PAPER]))
def test_no_random_point_beats_solution(state, probes, mode):
    solution = solve_p5(state, mode)
    if not solution.feasible:
        return
    objective = objective_for(mode)
    gamma_hi = 1.0
    if state.backlog > 0:
        gamma_hi = min(1.0, state.s_dt_max / state.backlog)
    for u, v in probes:
        grt = u * state.grt_cap
        gamma = v * gamma_hi
        physics = resolve_physics(state, grt, gamma)
        value = objective(state, grt, gamma, physics)
        assert solution.objective <= value + 1e-7


@settings(max_examples=200, deadline=None)
@given(state=slot_states,
       mode=st.sampled_from([ObjectiveMode.DERIVED,
                             ObjectiveMode.PAPER]))
def test_solution_within_bounds(state, mode):
    solution = solve_p5(state, mode)
    assert 0.0 <= solution.gamma <= 1.0
    assert -1e-12 <= solution.grt <= state.grt_cap + 1e-9
    physics = solution.physics
    assert physics.sdt <= state.s_dt_max + 1e-9
    assert physics.charge <= state.charge_cap + 1e-9
    assert physics.discharge <= state.discharge_cap + 1e-9
    assert physics.charge == 0.0 or physics.discharge == 0.0


@settings(max_examples=200, deadline=None)
@given(state=slot_states)
def test_feasible_solutions_serve_ds(state):
    solution = solve_p5(state, ObjectiveMode.DERIVED)
    if solution.feasible:
        assert solution.physics.unserved <= 1e-9


@settings(max_examples=200, deadline=None)
@given(state=slot_states)
def test_infeasible_only_when_truly_impossible(state):
    solution = solve_p5(state, ObjectiveMode.DERIVED)
    max_supply = (state.gbef_rate + state.grt_cap + state.renewable
                  + state.discharge_cap)
    if solution.feasible:
        return
    # Infeasible flag implies even maximum effort cannot serve dds.
    assert max_supply < state.demand_ds + 1e-6


@settings(max_examples=100, deadline=None)
@given(state=slot_states)
def test_idempotent(state):
    a = solve_p5(state, ObjectiveMode.DERIVED)
    b = solve_p5(state, ObjectiveMode.DERIVED)
    assert a.grt == b.grt
    assert a.gamma == b.gamma
    assert a.objective == pytest.approx(b.objective)


# ----------------------------------------------------------------------
# Batch row selection under near ties
# ----------------------------------------------------------------------


def _scalar_scan(column) -> int:
    """The scalar solver's selection rule in plain Python.

    Start at row 2 (the emergency action); a later candidate wins only
    when its value is below ``best - 1e-12``, so earlier rows keep
    ties.
    """
    best_value, best_row = float("inf"), 2
    for row, value in enumerate(column):
        if value < best_value - 1e-12:
            best_value, best_row = value, row
    return best_row


def _batch_rows(values):
    """The rows ``solve_p5_batch`` selects for a crafted value matrix.

    The candidate step writes each row's index into ``grt`` and the
    objective step copies ``values`` in, so the returned ``grt`` is the
    selected row per lane.
    """
    import numpy as np

    from repro.core import p5_vec

    values = np.asarray(values, dtype=float)
    work = p5_vec.P5Workspace(batch=values.shape[1])

    def candidates(state, w):
        w.grt[:] = np.arange(p5_vec.N_CANDIDATES)[:, None]
        w.gamma[:] = 0.0

    def objective(state, mode, w):
        np.copyto(w.values, values)

    state = type("State", (), {"backlog": np.zeros(values.shape[1])})()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(p5_vec, "_candidates", candidates)
        patch.setattr(p5_vec, "_objective", objective)
        grt, _ = p5_vec.solve_p5_batch(state, ObjectiveMode.DERIVED, work)
    return [int(row) for row in grt.tolist()]


#: Offsets around a lane's base value: ties, sub-1e-12 wiggles, and
#: gaps between 1e-12 and 1e-9 where a looser scan tolerance would
#: keep an earlier row.
_NEAR_TIE_OFFSETS = (0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1e-12, -1e-12,
                     2e-12, -2e-12, 5e-10, -5e-10, -5e-10 + 1e-13,
                     1e-9, -1e-9, 1e-6)


@st.composite
def near_tie_columns(draw):
    import math

    base = draw(st.floats(min_value=-100.0, max_value=100.0))
    return [draw(st.one_of(
        st.just(math.inf),
        st.sampled_from(_NEAR_TIE_OFFSETS).map(lambda d: base + d)))
        for _ in range(17)]


@pytest.mark.equivalence
def test_p5_batch_scan_keeps_scalar_rule_on_near_ties():
    """A lane whose later row beats the incumbent by 5e-10: rows 5, 6
    and 7 hold 1.0, 1.0 - 5e-10 and 1.0 - 5e-10 + 1e-13.  The scalar
    rule picks row 6: row 7 is not below fl(row 6 - 1e-12), and a
    1e-9 tolerance would keep row 5.  The all-``inf`` lane keeps the
    emergency row 2."""
    inf = float("inf")
    column = [inf] * 17
    column[5], column[6], column[7] = 1.0, 1.0 - 5e-10, 1.0 - 5e-10 + 1e-13
    all_inf = [inf] * 17
    rows = _batch_rows([[a, b] for a, b in zip(column, all_inf)])
    assert rows == [_scalar_scan(column), _scalar_scan(all_inf)] == [6, 2]


@pytest.mark.equivalence
@settings(max_examples=40, deadline=None)
@given(st.lists(near_tie_columns(), min_size=1, max_size=6))
def test_p5_batch_scan_matches_scalar_rule(columns):
    """Random near-tie matrices: the one-pass batch scan selects the
    scalar rule's row in every lane."""
    matrix = [list(row) for row in zip(*columns)]
    assert _batch_rows(matrix) == [_scalar_scan(c) for c in columns]
