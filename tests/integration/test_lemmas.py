"""Lemma-level checks (Lemmas 1-3) against their cleanest settings."""

import numpy as np
import pytest

from repro.baselines.offline import solve_offline_plan
from repro.config.control import ObjectiveMode
from repro.config.presets import paper_system_config
from repro.core.modes import SlotState, resolve_physics
from repro.core.p5 import solve_p5
from tests.conftest import constant_traces
from tests.test_core_modes import make_state


class TestLemma1:
    """Optimal offline solutions need no real-time purchases...

    ...when the long-term market is strictly cheaper and the flat
    delivery constraint does not bind (constant demand).  With diurnal
    demand the flat gbef/T delivery *does* bind and small real-time
    purchases appear — which the paper's idealized P2 ignores.
    """

    def test_constant_demand_no_rt(self):
        system = paper_system_config(days=4)
        traces = constant_traces(system.horizon_slots,
                                 demand_ds=1.0, demand_dt=0.3,
                                 renewable=0.1, price_rt=50.0,
                                 price_lt=40.0)
        plan = solve_offline_plan(system, traces)
        assert plan.grt.sum() == pytest.approx(0.0, abs=1e-6)

    def test_rt_option_never_hurts(self, week_system, week_traces):
        # Allowing real-time purchases can only lower the optimum;
        # with diurnal demand the flat gbef/T delivery binds and the
        # LP genuinely uses the cheap overnight real-time dips.
        with_rt = solve_offline_plan(week_system, week_traces)
        without_rt = solve_offline_plan(week_system, week_traces,
                                        include_real_time=False)
        assert with_rt.lp_objective <= without_rt.lp_objective + 1e-6

    def test_rt_purchases_sit_in_cheap_hours(self, week_system,
                                             week_traces):
        plan = solve_offline_plan(week_system, week_traces)
        rt_energy = float(plan.grt.sum())
        if rt_energy < 1e-6:
            return
        rt_price_paid = float(
            (plan.grt * week_traces.price_rt).sum()) / rt_energy
        assert rt_price_paid < float(week_traces.price_rt.mean())


class TestLemma3:
    """If X > 0 no recharge; if X very negative no discharge (paper)."""

    def test_positive_x_means_no_charge(self):
        # X > 0: battery above target.  The derived objective prices
        # charging at V·p + X·ηc > 0, so no deliberate charge happens.
        state = make_state(x_hat=2.0, q_hat=0.0, y_hat=0.0,
                           backlog=0.0, demand_ds=1.0, gbef_rate=1.0,
                           renewable=0.0, price_rt=2.0)
        solution = solve_p5(state, ObjectiveMode.DERIVED)
        assert solution.physics.charge == pytest.approx(0.0,
                                                        abs=1e-9)

    def test_very_negative_x_means_no_discharge(self):
        # X far below −(Q+Y): holding energy dominates serving with it.
        state = make_state(x_hat=-50.0, q_hat=1.0, y_hat=1.0,
                           backlog=1.0, demand_ds=1.5, gbef_rate=1.0,
                           renewable=0.0, price_rt=10.0, grt_cap=1.0)
        solution = solve_p5(state, ObjectiveMode.DERIVED)
        assert solution.physics.discharge == pytest.approx(0.0,
                                                           abs=1e-9)

    def test_paper_mode_lemma3_signs(self):
        # The printed objective has the same structural property.
        charging_state = make_state(x_hat=5.0, q_hat=1.0, y_hat=1.0)
        solution = solve_p5(charging_state, ObjectiveMode.PAPER)
        assert solution.physics.charge == pytest.approx(0.0,
                                                        abs=1e-9)


class TestLemma2DelayCertificate:
    """Bounded Q and Y certify a worst-case delay (Lemma 2)."""

    def test_waiting_grows_y_until_service_forced(self):
        # With backlog never served, Y grows by ε each slot; once
        # Q+Y passes any price threshold, service follows — verified
        # here at the P5 level by sweeping Y upward.
        served_at = None
        for y_hat in np.arange(0.0, 30.0, 0.5):
            state = make_state(q_hat=2.0, y_hat=float(y_hat),
                               backlog=2.0, price_rt=10.0,
                               demand_ds=0.5, gbef_rate=0.5,
                               renewable=0.0, grt_cap=2.0)
            solution = solve_p5(state, ObjectiveMode.DERIVED)
            if solution.physics.sdt > 1e-9:
                served_at = y_hat
                break
        assert served_at is not None
        # Service must trigger by Q+Y ≈ V·p (the threshold).
        assert served_at <= 10.0


class TestBalanceIdentity:
    """Eq. (4) holds for every P5 solution by construction."""

    @pytest.mark.parametrize("seed", range(8))
    def test_identity(self, seed):
        rng = np.random.default_rng(seed)
        state = make_state(
            backlog=float(rng.uniform(0, 5)),
            demand_ds=float(rng.uniform(0, 2)),
            gbef_rate=float(rng.uniform(0, 2)),
            renewable=float(rng.uniform(0, 1)),
        )
        solution = solve_p5(state, ObjectiveMode.DERIVED)
        physics = solution.physics
        supply = state.gbef_rate + solution.grt + state.renewable
        lhs = supply + physics.discharge - physics.charge
        rhs = (state.demand_ds - physics.unserved + physics.sdt
               + physics.waste)
        assert lhs == pytest.approx(rhs, abs=1e-9)
