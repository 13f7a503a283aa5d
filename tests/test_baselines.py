"""Baseline controllers: Impatient, OfflineOptimal, Myopic."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.impatient import ImpatientController
from repro.baselines.myopic import MyopicPriceThreshold, _RunningQuantile
from repro.baselines.offline import (
    DEFAULT_DEADLINE_SLOTS,
    OfflineOptimal,
    OfflinePlan,
    _get_structure,
    solve_offline_plan,
)
from repro.core.interfaces import FineObservation
from repro.exceptions import ConfigurationError
from repro.sim.engine import Simulator
from repro.traces.base import TraceSet
from tests.conftest import constant_traces


class TestImpatient:
    def test_serves_immediately(self, small_system, small_traces):
        result = Simulator(small_system, ImpatientController(),
                           small_traces).run()
        # Arrive at t, served at t+1: the minimum possible delay.
        assert result.average_delay_slots == pytest.approx(1.0,
                                                           abs=0.3)
        assert result.availability == 1.0

    def test_gamma_always_one(self, small_system, small_traces):
        result = Simulator(small_system, ImpatientController(),
                           small_traces).run()
        assert np.all(result.series["gamma"] == 1.0)

    def test_backlog_stays_tiny(self, small_system, small_traces):
        result = Simulator(small_system, ImpatientController(),
                           small_traces).run()
        assert result.series["backlog"].max() <= small_system.d_dt_max + 1e-9

    def test_ds_only_planning_variant(self, small_system,
                                      small_traces):
        total = Simulator(small_system, ImpatientController(),
                          small_traces).run()
        ds_only = Simulator(
            small_system,
            ImpatientController(plan_for_total_demand=False),
            small_traces).run()
        assert (ds_only.series["gbef_rate"].sum()
                < total.series["gbef_rate"].sum())


class TestOfflinePlan:
    def test_plan_respects_caps(self, small_system, small_traces):
        plan = solve_offline_plan(small_system, small_traces)
        t = small_system.fine_slots_per_coarse
        assert np.all(plan.gbef >= -1e-9)
        assert np.all(plan.gbef / t <= small_system.p_grid + 1e-9)
        assert np.all(plan.charge <= small_system.b_charge_max + 1e-9)
        assert np.all(plan.discharge
                      <= small_system.b_discharge_max + 1e-9)
        assert np.all(plan.battery >= small_system.b_min - 1e-9)
        assert np.all(plan.battery <= small_system.b_max + 1e-9)

    def test_queue_dynamics_consistent(self, small_system,
                                       small_traces):
        plan = solve_offline_plan(small_system, small_traces)
        n = small_system.horizon_slots
        q = 0.0
        for i in range(n):
            assert plan.sdt[i] <= q + 1e-6
            q = q - plan.sdt[i] + float(small_traces.demand_dt[i])
            assert plan.backlog[i + 1] == pytest.approx(q, abs=1e-6)

    def test_deadline_enforced(self, small_system, small_traces):
        deadline = 12
        plan = solve_offline_plan(small_system, small_traces,
                                  deadline_slots=deadline)
        arrivals = np.concatenate(
            [[0.0], np.cumsum(small_traces.demand_dt)])
        served = np.concatenate([[0.0], np.cumsum(plan.sdt)])
        for i in range(deadline, small_system.horizon_slots):
            assert served[i + 1] >= arrivals[i + 1 - deadline] - 1e-6

    def test_no_real_time_option(self, small_system, small_traces):
        plan = solve_offline_plan(small_system, small_traces,
                                  include_real_time=False)
        assert plan.grt.sum() == pytest.approx(0.0, abs=1e-9)

    def test_tighter_deadline_costs_more(self, small_system,
                                         small_traces):
        loose = solve_offline_plan(small_system, small_traces,
                                   deadline_slots=48)
        tight = solve_offline_plan(small_system, small_traces,
                                   deadline_slots=6)
        assert tight.lp_objective >= loose.lp_objective - 1e-6

    def test_cycle_proxy_discourages_churn(self, small_system,
                                           small_traces):
        free = solve_offline_plan(small_system, small_traces)
        taxed = solve_offline_plan(small_system, small_traces,
                                   cycle_proxy_cost=5.0)
        assert (taxed.charge.sum() + taxed.discharge.sum()
                <= free.charge.sum() + free.discharge.sum() + 1e-6)


class TestOfflineReplay:
    def test_replay_close_to_lp_objective(self, small_system,
                                          small_traces):
        controller = OfflineOptimal(small_traces)
        result = Simulator(small_system, controller,
                           small_traces).run()
        lp = controller.plan.lp_objective
        # Engine adds the battery op cost the LP relaxes; physics
        # clamps can only reduce waste.  Stay within a few percent.
        assert result.costs.total == pytest.approx(lp, rel=0.05)

    def test_replay_availability(self, small_system, small_traces):
        result = Simulator(small_system, OfflineOptimal(small_traces),
                           small_traces).run()
        assert result.availability == 1.0


def _toy_plan(n: int, sdt: np.ndarray, grt: np.ndarray | None = None
              ) -> OfflinePlan:
    zeros = np.zeros(n)
    return OfflinePlan(
        gbef=np.zeros(4), grt=zeros if grt is None else grt, sdt=sdt,
        charge=zeros, discharge=zeros, waste=zeros,
        battery=np.zeros(n + 1), backlog=np.zeros(n + 1),
        lp_objective=0.0)


def _fine_obs(backlog: float) -> FineObservation:
    return FineObservation(
        fine_slot=0, coarse_index=0, price_rt=50.0, demand_ds=1.0,
        demand_dt=0.0, renewable=0.0, battery_level=0.0,
        backlog=backlog, long_term_rate=1.0, grid_headroom=10.0,
        supply_headroom=10.0, cycle_budget_left=None)


class TestOfflineServeSemantics:
    """``min(planned, backlog)`` service in the replay controller.

    Regression pack for the bug where gamma was forced to 0 whenever
    ``backlog <= 1e-12``, silently dropping planned service and
    letting the replay drift behind the LP's cumulative-service
    schedule near empty-queue slots.
    """

    def _controller(self, sdt0: float) -> OfflineOptimal:
        sdt = np.zeros(8)
        sdt[0] = sdt0
        controller = OfflineOptimal(None, plan=_toy_plan(8, sdt))
        controller.plan = controller._injected_plan
        return controller

    def test_tiny_backlog_fully_served(self):
        # Planned service exceeds a sub-epsilon queue: serve all of it
        # (gamma = 1), not none of it (the old gamma = 0 branch).
        decision = self._controller(0.5).real_time(_fine_obs(1e-13))
        assert decision.gamma == 1.0

    def test_partial_service_ratio(self):
        decision = self._controller(0.5).real_time(_fine_obs(2.0))
        assert decision.gamma == pytest.approx(0.25)

    def test_zero_backlog_zero_gamma(self):
        decision = self._controller(0.5).real_time(_fine_obs(0.0))
        assert decision.gamma == 0.0

    def test_no_planned_service_zero_gamma(self):
        decision = self._controller(0.0).real_time(_fine_obs(2.0))
        assert decision.gamma == 0.0

    def test_tolerance_negative_planned_service_serves_nothing(
            self, small_system, small_traces, monkeypatch):
        # HiGHS can undershoot the sdt >= 0 bound by ~1e-8.  The plan
        # must carry 0 there, so the replay serves nothing instead of
        # rejecting gamma < 0 at a slot with queued work.
        base = solve_offline_plan(small_system, small_traces)
        slot = int(np.argmax(base.backlog[:-1] > 1e-3))
        assert base.backlog[slot] > 1e-3
        structure = _get_structure(small_system, DEFAULT_DEADLINE_SLOTS,
                                   True, 0.0)
        solve = structure.compiled.solve

        def undershoot(**kwargs):
            solution = solve(**kwargs)
            x = solution.x.copy()
            x[structure.sdt_cols.start + slot] = -6e-8
            return replace(solution, x=x)

        monkeypatch.setattr(structure.compiled, "solve", undershoot)
        plan = solve_offline_plan(small_system, small_traces)
        assert plan.sdt[slot] == 0.0
        assert np.all(plan.sdt >= 0.0)
        result = Simulator(small_system, OfflineOptimal(None, plan=plan),
                           small_traces).run()
        assert result.series["gamma"][slot] == 0.0

    def test_near_empty_queue_trace_drains(self, small_system):
        # Engineered to hit the bug: the plan is solved against an
        # arrival of 0.4 MWh, but the replayed trace delivers only a
        # sub-epsilon queue — exactly the "plan.sdt > 0 while backlog
        # <= 1e-12" slot the old branch zeroed out, stranding the
        # arrival past its deadline.
        n = small_system.horizon_slots

        def trace_with_arrival(amount: float) -> TraceSet:
            ddt = np.zeros(n)
            ddt[0] = amount
            return TraceSet(
                demand_ds=np.full(n, 1.0), demand_dt=ddt,
                renewable=np.zeros(n), price_rt=np.full(n, 50.0),
                price_lt_hourly=np.full(n, 40.0))

        plan = solve_offline_plan(small_system,
                                  trace_with_arrival(0.4))
        assert plan.sdt.sum() == pytest.approx(0.4, rel=1e-6)
        replay_traces = trace_with_arrival(1e-13)
        controller = OfflineOptimal(None, plan=plan)
        result = Simulator(small_system, controller,
                           replay_traces).run()
        # The replay must not strand the arrival in the queue.
        assert result.series["backlog"][-1] == 0.0


class TestOfflineDeadlineValidation:
    def test_zero_rejected(self, small_system, small_traces):
        with pytest.raises(ConfigurationError, match="deadline_slots"):
            solve_offline_plan(small_system, small_traces,
                               deadline_slots=0)

    def test_negative_rejected(self, small_system, small_traces):
        with pytest.raises(ConfigurationError, match=">= 1"):
            solve_offline_plan(small_system, small_traces,
                               deadline_slots=-3)

    def test_non_int_rejected(self, small_system, small_traces):
        with pytest.raises(ConfigurationError, match="int"):
            solve_offline_plan(small_system, small_traces,
                               deadline_slots=12.5)

    def test_none_disables_deadline(self, small_system, small_traces):
        plan = solve_offline_plan(small_system, small_traces,
                                  deadline_slots=None)
        assert plan.lp_objective <= solve_offline_plan(
            small_system, small_traces).lp_objective + 1e-6

    def test_controller_validates_at_construction(self, small_traces):
        with pytest.raises(ConfigurationError, match=">= 1"):
            OfflineOptimal(small_traces, deadline_slots=0)

    def test_controller_needs_traces_or_plan(self):
        with pytest.raises(ConfigurationError, match="traces"):
            OfflineOptimal(None)


class TestOfflinePlanInjection:
    def test_injected_plan_skips_solve(self, small_system,
                                       small_traces):
        plan = solve_offline_plan(small_system, small_traces)
        controller = OfflineOptimal(None, plan=plan)
        controller.begin_horizon(small_system)
        assert controller.plan is plan

    def test_injected_replay_matches_solved(self, small_system,
                                            small_traces):
        plan = solve_offline_plan(small_system, small_traces)
        solved = Simulator(small_system, OfflineOptimal(small_traces),
                           small_traces).run()
        injected = Simulator(small_system,
                             OfflineOptimal(None, plan=plan),
                             small_traces).run()
        assert injected.costs.total == solved.costs.total


class TestRunningQuantile:
    def test_exact_on_known_data(self):
        quantile = _RunningQuantile(0.5)
        for value in [5.0, 1.0, 3.0, 2.0, 4.0]:
            quantile.observe(value)
        assert quantile.value == 3.0

    def test_history_bounded(self):
        quantile = _RunningQuantile(0.5, max_history=3)
        for value in [10.0, 20.0, 30.0, 1.0, 2.0, 3.0]:
            quantile.observe(value)
        assert quantile.value == 2.0

    def test_empty_is_infinite(self):
        assert _RunningQuantile(0.3).value == float("inf")

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ConfigurationError):
            _RunningQuantile(0.0)


class TestMyopic:
    def test_runs_and_serves_eventually(self, week_system,
                                        week_traces):
        controller = MyopicPriceThreshold(max_wait_slots=24)
        result = Simulator(week_system, controller, week_traces).run()
        assert result.availability == 1.0
        # The overdue rule bounds waiting.
        assert result.worst_delay_slots <= 24 + 24

    def test_cheaper_than_impatient_on_average(self, paper_system):
        from repro.traces.library import make_paper_traces
        reductions = []
        for seed in (1, 2, 3):
            traces = make_paper_traces(paper_system, seed=seed)
            myopic = Simulator(paper_system, MyopicPriceThreshold(),
                               traces).run()
            impatient = Simulator(paper_system, ImpatientController(),
                                  traces).run()
            reductions.append(impatient.time_average_cost
                              - myopic.time_average_cost)
        assert np.mean(reductions) > 0.0
