"""Property-based tests: engine physics under arbitrary traces/policies.

Whatever the (random) traces and whatever a (random scripted) policy
asks for, the engine must maintain: the balance equation (4), battery
range (7), grid cap (5), non-negative accounting, and exact
delay-tolerant energy conservation.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config.presets import paper_system_config
from repro.core.interfaces import Controller, RealTimeDecision
from repro.sim.engine import Simulator
from repro.traces.base import TraceSet

N_SLOTS = 48  # two coarse days


class RandomScriptController(Controller):
    """Plays a pre-drawn decision script (no physics awareness)."""

    def __init__(self, plans, decisions):
        self.plans = list(plans)
        self.decisions = list(decisions)

    def begin_horizon(self, system):
        self._plan_cursor = 0
        self._decision_cursor = 0

    def plan_long_term(self, obs):
        value = self.plans[self._plan_cursor % len(self.plans)]
        self._plan_cursor += 1
        return value

    def real_time(self, obs):
        grt, gamma = self.decisions[
            self._decision_cursor % len(self.decisions)]
        self._decision_cursor += 1
        return RealTimeDecision(grt=grt, gamma=gamma)


trace_arrays = st.lists(
    st.floats(min_value=0.0, max_value=2.0), min_size=N_SLOTS,
    max_size=N_SLOTS)
price_arrays = st.lists(
    st.floats(min_value=1.0, max_value=200.0), min_size=N_SLOTS,
    max_size=N_SLOTS)
plans = st.lists(st.floats(min_value=0.0, max_value=60.0),
                 min_size=1, max_size=2)
decisions = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=3.0),
              st.floats(min_value=0.0, max_value=1.0)),
    min_size=1, max_size=12)


def build_traces(ds, dt, renewable, prices) -> TraceSet:
    return TraceSet(
        demand_ds=ds, demand_dt=np.minimum(dt, 1.0),
        renewable=renewable, price_rt=prices,
        price_lt_hourly=np.asarray(prices) * 0.85)


@settings(max_examples=60, deadline=None)
@given(ds=trace_arrays, dt=trace_arrays, renewable=trace_arrays,
       prices=price_arrays, plan=plans, script=decisions)
def test_engine_invariants(ds, dt, renewable, prices, plan, script):
    system = paper_system_config(days=2)
    traces = build_traces(ds, dt, renewable, prices)
    controller = RandomScriptController(plan, script)
    result = Simulator(system, controller, traces).run()
    s = result.series

    # Balance equation (4): supply + bdc − brc = served + waste.
    supply = s["gbef_rate"] + s["grt"] + s["renewable_used"]
    lhs = supply + s["discharge"] - s["charge"]
    rhs = s["served_ds"] + s["served_dt"] + s["waste"]
    assert np.allclose(lhs, rhs, atol=1e-8)

    # Grid cap (5) on every slot.
    assert np.all(s["gbef_rate"] + s["grt"]
                  <= system.p_grid + 1e-9)

    # Battery range (7).
    assert np.all(s["battery_level"] >= system.b_min - 1e-9)
    assert np.all(s["battery_level"] <= system.b_max + 1e-9)

    # Everything non-negative.
    for name in ("cost_total", "waste", "charge", "discharge",
                 "served_ds", "served_dt", "unserved_ds", "backlog"):
        assert np.all(s[name] >= -1e-12), name

    # Delay-tolerant energy conservation.
    arrived = float(traces.demand_dt[:N_SLOTS].sum())
    served = float(s["served_dt"].sum())
    final = float(result.series["backlog"][-1])
    assert arrived == pytest.approx(served + final, abs=1e-6)

    # Served + unserved delay-sensitive equals the trace.
    ds_total = float(traces.demand_ds[:N_SLOTS].sum())
    assert ds_total == pytest.approx(
        float(s["served_ds"].sum() + s["unserved_ds"].sum()),
        abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(ds=trace_arrays, dt=trace_arrays, renewable=trace_arrays,
       prices=price_arrays)
def test_smartdpss_never_violates_availability_within_capacity(
        ds, dt, renewable, prices):
    """When Pgrid can carry dds alone, SmartDPSS always serves it."""
    from repro.config.presets import paper_controller_config
    from repro.core.smartdpss import SmartDPSS
    system = paper_system_config(days=2)
    capped_ds = np.minimum(ds, system.p_grid)
    traces = build_traces(capped_ds, dt, renewable, prices)
    result = Simulator(
        system, SmartDPSS(paper_controller_config()), traces).run()
    assert result.availability == pytest.approx(1.0, abs=1e-9)
