"""Virtual queues Y (eq. 12) and X (eq. 14)."""

import pytest

from repro.core.virtual_queues import (
    BatteryVirtualQueue,
    DelayAwareQueue,
    operational_shift,
    paper_shift,
)
from repro.exceptions import (
    ConfigurationError,
    InfeasibleActionError,
    StateError,
)


class TestDelayAwareQueue:
    def test_grows_by_epsilon_with_backlog(self):
        queue = DelayAwareQueue(epsilon=0.5)
        queue.update(served_dt=0.0, had_backlog=True)
        assert queue.value == pytest.approx(0.5)

    def test_no_growth_without_backlog(self):
        queue = DelayAwareQueue(epsilon=0.5)
        queue.update(served_dt=0.0, had_backlog=False)
        assert queue.value == 0.0

    def test_service_drains(self):
        queue = DelayAwareQueue(epsilon=0.5)
        queue.update(0.0, True)   # Y = 0.5
        queue.update(0.3, True)   # Y = 0.5 - 0.3 + 0.5 = 0.7
        assert queue.value == pytest.approx(0.7)

    def test_never_negative(self):
        queue = DelayAwareQueue(epsilon=0.5)
        queue.update(0.0, True)
        queue.update(5.0, False)
        assert queue.value == 0.0

    def test_exact_recurrence(self):
        queue = DelayAwareQueue(epsilon=0.3)
        y = 0.0
        script = [(0.0, True), (0.1, True), (0.5, True), (0.0, False),
                  (0.2, True), (1.0, True)]
        for service, backlog in script:
            queue.update(service, backlog)
            y = max(y - service + (0.3 if backlog else 0.0), 0.0)
            assert queue.value == pytest.approx(y)

    def test_peak_tracked(self):
        queue = DelayAwareQueue(epsilon=1.0)
        for _ in range(5):
            queue.update(0.0, True)
        queue.update(10.0, False)
        assert queue.peak == pytest.approx(5.0)

    def test_reset(self):
        queue = DelayAwareQueue(epsilon=0.5)
        queue.update(0.0, True)
        queue.reset()
        assert queue.value == 0.0
        assert queue.peak == 0.0

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayAwareQueue(epsilon=0.0)

    def test_negative_service_rejected(self):
        with pytest.raises(InfeasibleActionError):
            DelayAwareQueue(0.5).update(-0.1, True)


class TestBatteryVirtualQueue:
    def test_observe_computes_shifted_level(self):
        queue = BatteryVirtualQueue(shift=2.0)
        assert queue.observe(0.5) == pytest.approx(-1.5)
        assert queue.value == pytest.approx(-1.5)

    def test_extremes_tracked(self):
        queue = BatteryVirtualQueue(shift=1.0)
        queue.observe(0.2)
        queue.observe(0.9)
        queue.observe(0.5)
        state = queue.state()
        low, high = state["min_seen"], state["max_seen"]
        assert low == pytest.approx(-0.8)
        assert high == pytest.approx(-0.1)

    def test_value_before_observe_raises(self):
        with pytest.raises(StateError):
            BatteryVirtualQueue(1.0).value

    def test_retarget(self):
        queue = BatteryVirtualQueue(shift=1.0)
        queue.retarget(3.0)
        assert queue.observe(1.0) == pytest.approx(-2.0)

    def test_reset_keeps_shift(self):
        queue = BatteryVirtualQueue(shift=1.5)
        queue.observe(1.0)
        queue.reset()
        assert queue.shift == 1.5
        with pytest.raises(StateError):
            queue.value


class TestShiftFormulas:
    def test_paper_shift(self):
        # Umax + Bmin + Bdmax*eta_d (eq. 14).
        assert paper_shift(u_max=2.0, b_min=0.1, b_discharge_max=0.5,
                           eta_d=1.25) == pytest.approx(2.725)

    def test_operational_shift_centres_mid_capacity(self):
        shift = operational_shift(b_min=0.0, b_max=1.0, v=0.0001,
                                  reference_price=5.0)
        assert shift == pytest.approx(0.5, abs=0.01)

    def test_operational_shift_scales_with_v_and_price(self):
        low = operational_shift(0.0, 1.0, v=1.0, reference_price=4.0)
        high = operational_shift(0.0, 1.0, v=2.0, reference_price=4.0)
        assert high - low == pytest.approx(4.0)
