"""Theorem 2 verification against simulations.

Two regimes:

* the paper's own evaluation battery violates the ``Vmax > 0``
  precondition, so there the *implementation-consistent* bounds are
  checked (they must still hold — the engine clamps the battery and
  the thresholds bound the queues);
* a big-battery configuration where ``Vmax > 0`` genuinely holds.
"""

import pytest

from oracles.theory import all_hold, verify_theorem2
from repro.config.presets import paper_controller_config, paper_system_config
from repro.core.bounds import BoundVariant, compute_bounds
from repro.core.smartdpss import SmartDPSS
from repro.sim.engine import Simulator
from repro.traces.library import make_paper_traces


def normalized_cap(system, config) -> float:
    return system.p_max / config.price_scale


class TestPaperScaleSystem:
    @pytest.mark.parametrize("v", [0.05, 0.5, 1.0, 5.0])
    def test_implementation_bounds_hold(self, v):
        system = paper_system_config()
        traces = make_paper_traces(system, seed=55)
        config = paper_controller_config(v=v)
        controller = SmartDPSS(config)
        result = Simulator(system, controller, traces).run()
        checks = verify_theorem2(
            result, v=v, epsilon=config.epsilon,
            price_cap_normalized=normalized_cap(system, config),
            y_peak=controller._y_queue.peak)
        assert all_hold(checks), "\n".join(str(c) for c in checks)

    def test_vmax_negative_documented(self):
        system = paper_system_config()
        bounds = compute_bounds(system, 1.0, 0.5, 20.0)
        assert bounds.v_max <= 0


class TestBigBatterySystem:
    def big_system(self):
        # Battery large enough that the paper's precondition holds.
        return paper_system_config().replace(
            b_max=25.0, b_min=0.5, b_init=12.0)

    def test_vmax_positive(self):
        bounds = compute_bounds(self.big_system(), 1.0, 0.5, 20.0)
        assert bounds.v_max > 0
        assert 0 < 1.0 <= bounds.v_max

    def test_bounds_hold_with_big_battery(self):
        system = self.big_system()
        traces = make_paper_traces(system, seed=56)
        config = paper_controller_config(v=1.0)
        controller = SmartDPSS(config)
        result = Simulator(system, controller, traces).run()
        checks = verify_theorem2(
            result, v=1.0, epsilon=config.epsilon,
            price_cap_normalized=normalized_cap(system, config),
            y_peak=controller._y_queue.peak)
        assert all_hold(checks), "\n".join(str(c) for c in checks)


class TestCostGap:
    def test_gap_within_h2_over_v(self):
        # Theorem 2-(5): Cost_av <= φopt + H2/V.  H2/V is enormous at
        # paper scale, so this is loose — but it must hold.
        from repro.baselines.offline import OfflineOptimal
        system = paper_system_config()
        traces = make_paper_traces(system, seed=57)
        config = paper_controller_config(v=1.0)
        smart = Simulator(system, SmartDPSS(config), traces).run()
        offline = Simulator(system, OfflineOptimal(traces),
                            traces).run()
        checks = verify_theorem2(
            smart, v=1.0, epsilon=config.epsilon,
            price_cap_normalized=normalized_cap(system, config),
            offline_time_average=offline.time_average_cost)
        gap_check = next(c for c in checks if "cost gap" in c.claim)
        assert gap_check.holds


class TestBoundTightnessTrend:
    def test_peak_backlog_grows_with_v_like_bound(self):
        system = paper_system_config()
        traces = make_paper_traces(system, seed=58)
        peaks = []
        for v in (0.05, 5.0):
            result = Simulator(
                system, SmartDPSS(paper_controller_config(v=v)),
                traces).run()
            peaks.append(result.peak_backlog)
        # Qmax scales with V; realized peaks should follow the trend.
        assert peaks[1] > peaks[0]
