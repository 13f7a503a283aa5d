"""Property-based tests: P4 planning invariants."""

import math
import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from oracles.selection import minimize_over_candidates, window_cost
from repro.config.control import ObjectiveMode
from repro.core.p4 import (
    _SCALAR_FIELDS,
    P4State,
    StackedWindows,
    _scan,
    _window_values,
    solve_p4,
    solve_windows,
)
from tests.property.test_property_p5 import near_tie_columns

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
    best = window_cost(state, solution.rate)
    lo = solution.floor_rate
    for u in probes:
        rate = lo + u * (state.p_grid - lo)
        assert best <= window_cost(state, rate) + 1e-7


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


# ----------------------------------------------------------------------
# Row selection under near ties
# ----------------------------------------------------------------------


def _reference_row(values) -> int:
    """The row :func:`minimize_over_candidates` picks from ``values``."""
    _, (row,) = minimize_over_candidates(
        lambda row: values[row], [(row,) for row in range(len(values))])
    return row


@pytest.mark.equivalence
def test_p4_scan_keeps_earlier_rate_on_near_tie():
    """Rate 20 undercuts rate 10 by 1e-12 + 1e-31, which rounds to no
    more than 1e-12: fl(1e-31 - 1e-12) = -1e-12, and -1e-12 is not
    below it, so the earlier rate keeps the tie."""
    rates = _scan(np.array([[10.0, 20.0]]), np.array([[1e-31, -1e-12]]))
    assert rates.tolist() == [10.0]
    assert _reference_row([1e-31, -1e-12]) == 0


@pytest.mark.equivalence
@settings(max_examples=40, deadline=None)
@given(st.lists(near_tie_columns(), min_size=1, max_size=6))
def test_p4_scan_matches_scalar_rule(lanes):
    """Random near-tie value rows (P5's offsets and ``inf`` entries),
    one per scenario: ``_scan`` returns the candidate that
    :func:`minimize_over_candidates` picks in every scenario."""
    values = np.array(lanes)
    labels = np.tile(np.arange(values.shape[1], dtype=float),
                     (len(lanes), 1))
    assert _scan(labels, values).tolist() \
        == [float(_reference_row(lane)) for lane in lanes]


# ----------------------------------------------------------------------
# An independent window-cost oracle
# ----------------------------------------------------------------------


def _oracle_window_cost(s: P4State, rate: float) -> float:
    """The derived window cost, written from ``core/p4.py``'s rules.

    Plain Python over the slots of the window, sharing no code with
    ``_window_values``.
    """
    n = len(s.profile_demand_ds)
    scale = s.t_slots / n
    cost = s.v * s.price_lt * rate * s.t_slots
    surplus = 0.0
    for demand, renewable, price in zip(
            s.profile_demand_ds, s.profile_renewable, s.profile_price_rt):
        net = demand - renewable
        if net > rate:
            # Each slot's deficit is topped up at that hour's price.
            cost += s.v * price * (net - rate) * scale
        else:
            surplus += (rate - net) * scale

    # The deferred pool: served free from surplus, then bought at the
    # cheapest hours, at most one slot's headroom per hour.
    arrivals = (sum(s.profile_demand_dt) * scale
                if s.plan_deferrable_arrivals else 0.0)
    pool = min(s.q_hat + arrivals, s.s_dt_max * s.t_slots)
    free = min(surplus, pool)
    remaining = pool - free
    leftover = surplus - free
    headroom = max(0.0, s.p_grid - rate) * scale
    for price in sorted(s.profile_price_rt):
        bought = min(remaining, headroom)
        cost += s.v * price * bought
        remaining -= bought

    # The battery tier credits what it absorbs; the rest is wasted.
    credit = -s.x_hat * s.eta_c
    if credit > 0 and s.charge_headroom_total > 0:
        absorbed = min(leftover, s.charge_headroom_total)
        cost -= credit * absorbed
        leftover -= absorbed
    return cost + s.v * s.waste_penalty * leftover


@pytest.mark.equivalence
@settings(max_examples=300, deadline=None)
@given(state=p4_states(),
       probes=st.lists(st.floats(min_value=0.0, max_value=1.0),
                       min_size=1, max_size=8))
def test_window_values_match_plain_python_oracle(state, probes):
    """``_window_values`` equals the oracle at random rates between the
    feasibility floor and ``Pgrid``."""
    floor = min(max(0.0, state.demand_ds - state.renewable
                    - state.discharge_avail), state.p_grid)
    rates = [floor + u * (state.p_grid - floor) for u in probes]
    values = _window_values(StackedWindows.from_state(state),
                            np.array([rates]))[0]
    for rate, value in zip(rates, values.tolist()):
        expected = _oracle_window_cost(state, rate)
        assert math.isclose(value, expected, rel_tol=1e-9,
                            abs_tol=1e-9), (rate, value, expected)
