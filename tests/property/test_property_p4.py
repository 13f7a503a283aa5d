"""Property-based tests: P4 planning invariants."""

import struct

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.config.control import ObjectiveMode
from repro.core.p4 import (
    _SCALAR_FIELDS,
    P4State,
    StackedWindows,
    _window_cost,
    solve_p4,
    solve_windows,
)

profiles = st.lists(st.floats(min_value=0.0, max_value=2.0),
                    min_size=4, max_size=24)
price_profiles = st.lists(st.floats(min_value=0.5, max_value=20.0),
                          min_size=4, max_size=24)


@st.composite
def p4_states(draw, width=None):
    if width is None:
        ds = draw(profiles)
    else:
        ds = draw(st.lists(st.floats(min_value=0.0, max_value=2.0),
                           min_size=width, max_size=width))
    n = len(ds)
    renewable = draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0),
        min_size=n, max_size=n))
    prices = draw(st.lists(
        st.floats(min_value=0.5, max_value=20.0),
        min_size=n, max_size=n))
    return P4State(
        v=draw(st.floats(min_value=0.05, max_value=5.0)),
        price_lt=draw(st.floats(min_value=0.5, max_value=20.0)),
        q_hat=draw(st.floats(min_value=0.0, max_value=20.0)),
        y_hat=draw(st.floats(min_value=0.0, max_value=20.0)),
        x_hat=draw(st.floats(min_value=-10.0, max_value=2.0)),
        t_slots=24,
        demand_ds=float(np.mean(ds)),
        renewable=float(np.mean(renewable)),
        battery_level=draw(st.floats(min_value=0.0, max_value=1.0)),
        p_grid=2.0,
        discharge_avail=draw(st.floats(min_value=0.0,
                                       max_value=0.05)),
        charge_headroom_total=draw(st.floats(min_value=0.0,
                                             max_value=1.0)),
        eta_c=0.8,
        s_dt_max=2.0,
        waste_penalty=draw(st.floats(min_value=0.0, max_value=0.3)),
        profile_demand_ds=tuple(ds),
        profile_demand_dt=tuple(
            draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=n, max_size=n))),
        profile_renewable=tuple(renewable),
        profile_price_rt=tuple(prices),
        plan_deferrable_arrivals=draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None)
@given(state=p4_states(),
       mode=st.sampled_from([ObjectiveMode.DERIVED,
                             ObjectiveMode.PAPER]))
def test_rate_within_physical_bounds(state, mode):
    solution = solve_p4(state, mode)
    assert 0.0 <= solution.rate <= state.p_grid + 1e-12
    assert solution.gbef == solution.rate * state.t_slots
    assert solution.rate >= min(solution.floor_rate,
                                state.p_grid) - 1e-12


@settings(max_examples=150, deadline=None)
@given(state=p4_states())
def test_floor_is_feasibility_floor(state):
    solution = solve_p4(state, ObjectiveMode.DERIVED)
    expected = max(0.0, state.demand_ds - state.renewable
                   - state.discharge_avail)
    assert solution.floor_rate == min(expected, state.p_grid)


@settings(max_examples=100, deadline=None)
@given(state=p4_states(),
       probes=st.lists(st.floats(min_value=0.0, max_value=1.0),
                       min_size=4, max_size=10))
def test_no_random_rate_beats_solution(state, probes):
    solution = solve_p4(state, ObjectiveMode.DERIVED)
    best = _window_cost(state, solution.rate)
    lo = solution.floor_rate
    for u in probes:
        rate = lo + u * (state.p_grid - lo)
        assert best <= _window_cost(state, rate) + 1e-7


@settings(max_examples=100, deadline=None)
@given(state=p4_states())
def test_paper_mode_is_bang_bang(state):
    solution = solve_p4(state, ObjectiveMode.PAPER)
    assert (solution.rate == solution.floor_rate
            or solution.rate == state.p_grid)


@settings(max_examples=100, deadline=None)
@given(state=p4_states())
def test_deterministic(state):
    a = solve_p4(state, ObjectiveMode.DERIVED)
    b = solve_p4(state, ObjectiveMode.DERIVED)
    assert a.rate == b.rate


@st.composite
def same_width_states(draw):
    """2-6 states sharing one window width ``W`` in [4, 24]."""
    width = draw(st.integers(min_value=4, max_value=24))
    return [draw(p4_states(width))
            for _ in range(draw(st.integers(min_value=2, max_value=6)))]


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


_PROFILES = ("profile_demand_ds", "profile_demand_dt", "profile_renewable",
             "profile_price_rt")


def _stack(states):
    """The states stacked the way the batch planner stacks arrays."""
    def column(name):
        return np.array([getattr(state, name) for state in states],
                        dtype=float)

    return StackedWindows.stack(
        **{name: column(name) for name in _SCALAR_FIELDS + _PROFILES},
        plan_deferrable_arrivals=np.array(
            [state.plan_deferrable_arrivals for state in states]))


@settings(max_examples=150, deadline=None)
@given(states=same_width_states())
def test_stacked_windows_match_scalar_formulas(states):
    """Every stacked field equals the plain-Python scalar rule bit for
    bit — including Python's left-to-right ``sum`` of the deferrable
    arrivals, which NumPy's pairwise ``sum`` misses from W = 8 on."""
    w = _stack(states)
    width = len(states[0].profile_demand_ds)
    assert (w.count, w.n) == (len(states), width)
    for row, s in enumerate(states):
        t = s.t_slots
        arrivals = 0.0
        if s.plan_deferrable_arrivals and s.profile_demand_dt:
            arrivals = sum(s.profile_demand_dt) * (t / width)
        expected = {
            "pools": min(s.q_hat + arrivals, s.s_dt_max * t),
            "floors": min(max(0.0, s.demand_ds - s.renewable
                              - s.discharge_avail), s.p_grid),
            "battery_value": -s.x_hat * s.eta_c,
            "scale": t / width,
        }
        for name, value in expected.items():
            assert _bits(getattr(w, name)[row]) == _bits(value), name
        nets = [d - r for d, r in zip(s.profile_demand_ds,
                                      s.profile_renewable)]
        assert list(map(_bits, w.nets[row])) == list(map(_bits, nets))
        assert list(map(_bits, w.prices[row])) \
            == list(map(_bits, s.profile_price_rt))


@settings(max_examples=100, deadline=None)
@given(states=same_width_states(),
       mode=st.sampled_from([ObjectiveMode.DERIVED,
                             ObjectiveMode.PAPER]))
def test_batched_solve_matches_scalar_solves(states, mode):
    w = _stack(states)
    rates = solve_windows(w, mode)
    gbef = rates * w.t_slots
    for row, state in enumerate(states):
        solution = solve_p4(state, mode)
        assert _bits(rates[row]) == _bits(solution.rate)
        assert _bits(gbef[row]) == _bits(solution.gbef)
        assert _bits(w.floors[row]) == _bits(solution.floor_rate)
