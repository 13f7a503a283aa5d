"""P4 long-term-ahead planning."""

import numpy as np
import pytest

from oracles.selection import window_cost
from repro.config.control import ObjectiveMode
from repro.core.p4 import P4State, StackedWindows, solve_p4


def make_p4_state(**overrides) -> P4State:
    profile_ds = tuple(1.0 + 0.5 * np.sin(2 * np.pi * h / 24)
                       for h in range(24))
    profile_r = tuple(0.3 if 8 <= h <= 16 else 0.0 for h in range(24))
    profile_p = tuple(3.0 + 2.0 * np.sin(2 * np.pi * (h - 10) / 24)
                      for h in range(24))
    defaults = dict(
        v=1.0, price_lt=4.0, q_hat=1.0, y_hat=0.5, x_hat=-4.0,
        t_slots=24, demand_ds=1.0, renewable=0.15, battery_level=0.3,
        p_grid=2.0, discharge_avail=0.01, charge_headroom_total=0.25,
        eta_c=0.8, s_dt_max=2.0, waste_penalty=0.1,
        profile_demand_ds=profile_ds,
        profile_demand_dt=tuple(0.5 for _ in range(24)),
        profile_renewable=profile_r,
        profile_price_rt=profile_p,
    )
    defaults.update(overrides)
    return P4State(**defaults)


class TestPaperMode:
    def test_bang_bang_low_pressure(self):
        state = make_p4_state(q_hat=0.5, y_hat=0.2)
        solution = solve_p4(state, ObjectiveMode.PAPER)
        # V·plt = 4 > Q+Y = 0.7: buy only the feasibility floor.
        assert solution.rate == pytest.approx(solution.floor_rate)

    def test_bang_bang_high_pressure(self):
        state = make_p4_state(q_hat=3.0, y_hat=2.0)
        solution = solve_p4(state, ObjectiveMode.PAPER)
        # Q+Y = 5 > V·plt = 4: buy the grid maximum.
        assert solution.rate == pytest.approx(2.0)
        assert solution.gbef == pytest.approx(48.0)

    def test_floor_covers_ds_net_of_battery(self):
        state = make_p4_state(demand_ds=1.0, renewable=0.2,
                              discharge_avail=0.1, q_hat=0.0,
                              y_hat=0.0)
        solution = solve_p4(state, ObjectiveMode.PAPER)
        assert solution.floor_rate == pytest.approx(0.7)

    def test_floor_clamped_to_pgrid(self):
        state = make_p4_state(demand_ds=5.0, renewable=0.0,
                              discharge_avail=0.0)
        solution = solve_p4(state, ObjectiveMode.PAPER)
        assert solution.floor_rate == pytest.approx(2.0)


class TestDerivedMode:
    def test_rate_within_bounds(self):
        solution = solve_p4(make_p4_state(), ObjectiveMode.DERIVED)
        assert 0.0 <= solution.rate <= 2.0
        assert solution.gbef == pytest.approx(solution.rate * 24)

    def test_rate_at_least_floor(self):
        state = make_p4_state(demand_ds=1.8, renewable=0.0,
                              discharge_avail=0.0)
        solution = solve_p4(state, ObjectiveMode.DERIVED)
        assert solution.rate >= solution.floor_rate - 1e-12

    def test_cheap_contract_buys_more(self):
        cheap = solve_p4(make_p4_state(price_lt=2.0),
                         ObjectiveMode.DERIVED)
        dear = solve_p4(make_p4_state(price_lt=6.0),
                        ObjectiveMode.DERIVED)
        assert cheap.rate >= dear.rate

    def test_rich_renewable_buys_less(self):
        poor = make_p4_state()
        rich = make_p4_state(
            profile_renewable=tuple(0.8 for _ in range(24)))
        assert (solve_p4(rich, ObjectiveMode.DERIVED).rate
                <= solve_p4(poor, ObjectiveMode.DERIVED).rate)

    def test_covers_typical_profile_demand(self):
        # With RT prices well above the contract, the plan should cover
        # most of the observed net-demand profile.
        state = make_p4_state(
            price_lt=3.0,
            profile_price_rt=tuple(8.0 for _ in range(24)))
        solution = solve_p4(state, ObjectiveMode.DERIVED)
        nets = [d - r for d, r in zip(state.profile_demand_ds,
                                      state.profile_renewable)]
        assert solution.rate >= np.median(nets) - 1e-9

    def test_net_profile_property(self):
        # P4 plans against the observed net demand dds − r per slot.
        state = make_p4_state(
            profile_demand_ds=(1.0, 2.0),
            profile_renewable=(0.25, 0.5))
        nets = StackedWindows.from_state(state).nets
        assert nets.tolist() == [[0.75, 1.5]]

    def test_arrivals_planning_buys_no_less(self):
        base = make_p4_state()
        planning = make_p4_state(plan_deferrable_arrivals=True)
        assert (solve_p4(planning, ObjectiveMode.DERIVED).rate
                >= solve_p4(base, ObjectiveMode.DERIVED).rate - 1e-12)

    def test_single_slot_profile_fallback(self):
        state = make_p4_state(profile_demand_ds=(1.0,),
                              profile_demand_dt=(0.5,),
                              profile_renewable=(0.2,),
                              profile_price_rt=(5.0,))
        solution = solve_p4(state, ObjectiveMode.DERIVED)
        assert 0.0 <= solution.rate <= 2.0

    def test_empty_profiles_use_scalars(self):
        state = make_p4_state(profile_demand_ds=(),
                              profile_demand_dt=(),
                              profile_renewable=(),
                              profile_price_rt=())
        solution = solve_p4(state, ObjectiveMode.DERIVED)
        assert solution.rate >= 0.0

    def test_optimality_against_rate_grid(self):
        # The candidate sweep must beat a dense rate grid.
        state = make_p4_state()
        solution = solve_p4(state, ObjectiveMode.DERIVED)
        best_dense = min(
            window_cost(state, r)
            for r in np.linspace(solution.floor_rate, 2.0, 4001))
        assert window_cost(state, solution.rate) <= best_dense + 1e-9
