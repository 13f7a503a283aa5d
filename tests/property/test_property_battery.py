"""Property-based tests: UPS battery invariants (eqs. 3, 7, 8).

Under *any* sequence of charge/discharge requests — the two calls
``Simulator._step_physics`` makes — the battery must stay inside
``[Bmin, Bmax]``, never move more than the per-slot rate caps allow,
and conserve energy under the efficiency model.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.battery.model import UpsBattery
from repro.config.system import SystemConfig

request_amounts = st.lists(
    st.tuples(st.sampled_from(["charge", "discharge"]),
              st.floats(min_value=0.0, max_value=2.0,
                        allow_nan=False)),
    min_size=1, max_size=60)

battery_shapes = st.tuples(
    st.floats(min_value=0.1, max_value=5.0),    # capacity span
    st.floats(min_value=0.0, max_value=0.5),    # reserve
    st.floats(min_value=0.05, max_value=1.0),   # charge rate cap
    st.floats(min_value=0.05, max_value=1.0),   # discharge rate cap
    st.floats(min_value=0.3, max_value=1.0),    # eta_c
    st.floats(min_value=1.0, max_value=2.0),    # eta_d
)


def build_battery(shape) -> UpsBattery:
    span, reserve, c_cap, d_cap, eta_c, eta_d = shape
    system = SystemConfig(b_min=reserve, b_max=reserve + span,
                          b_charge_max=c_cap, b_discharge_max=d_cap,
                          eta_c=eta_c, eta_d=eta_d)
    return UpsBattery(system)


@settings(max_examples=120, deadline=None)
@given(shape=battery_shapes, actions=request_amounts)
def test_level_always_in_range(shape, actions):
    battery = build_battery(shape)
    system = battery.system
    for kind, amount in actions:
        getattr(battery, kind)(amount)
        assert system.b_min - 1e-9 <= battery.level \
            <= system.b_max + 1e-9


@settings(max_examples=120, deadline=None)
@given(shape=battery_shapes, actions=request_amounts)
def test_rate_caps_respected(shape, actions):
    battery = build_battery(shape)
    system = battery.system
    for kind, amount in actions:
        action = getattr(battery, kind)(amount)
        assert action.charge <= system.b_charge_max + 1e-12
        assert action.discharge <= system.b_discharge_max + 1e-12
        assert action.charge == 0.0 or action.discharge == 0.0


@settings(max_examples=120, deadline=None)
@given(shape=battery_shapes, actions=request_amounts)
def test_energy_ledger_consistent(shape, actions):
    """Level always equals init + ηc·Σcharge − ηd·Σdischarge."""
    battery = build_battery(shape)
    system = battery.system
    level = battery.level
    for kind, amount in actions:
        action = getattr(battery, kind)(amount)
        level += system.eta_c * action.charge \
            - system.eta_d * action.discharge
        assert battery.level == pytest_approx(level)


def pytest_approx(value, tol=1e-9):
    import pytest
    return pytest.approx(value, abs=tol)


@settings(max_examples=80, deadline=None)
@given(shape=battery_shapes,
       amount=st.floats(min_value=0.0, max_value=3.0))
def test_accepted_never_exceeds_requested(shape, amount):
    battery = build_battery(shape)
    assert battery.charge(amount).charge <= amount + 1e-12
    assert battery.discharge(amount).discharge <= amount + 1e-12
