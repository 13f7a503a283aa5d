"""UPS battery model (eqs. 3, 7, 8)."""

import pytest

from repro.battery.model import UpsBattery
from repro.config.system import SystemConfig
from repro.exceptions import InfeasibleActionError


def make_system(**overrides) -> SystemConfig:
    defaults = dict(b_max=1.0, b_min=0.1, b_init=0.5,
                    b_charge_max=0.4, b_discharge_max=0.3,
                    eta_c=0.8, eta_d=1.25)
    defaults.update(overrides)
    return SystemConfig(**defaults)


class TestInitialization:
    def test_defaults_to_configured_initial(self):
        battery = UpsBattery(make_system())
        assert battery.level == 0.5

    def test_explicit_level(self):
        battery = UpsBattery(make_system(), level=0.7)
        assert battery.level == 0.7

    def test_out_of_range_level_rejected(self):
        with pytest.raises(InfeasibleActionError):
            UpsBattery(make_system(), level=0.05)
        with pytest.raises(InfeasibleActionError):
            UpsBattery(make_system(), level=1.5)


class TestCharge:
    def test_efficiency_applied(self):
        battery = UpsBattery(make_system())
        action = battery.charge(0.2)
        assert action.charge == pytest.approx(0.2)
        # Stored energy is eta_c * accepted = 0.16.
        assert battery.level == pytest.approx(0.5 + 0.16)

    def test_rate_cap(self):
        battery = UpsBattery(make_system())
        action = battery.charge(2.0)
        assert action.charge == pytest.approx(0.4)

    def test_capacity_cap(self):
        battery = UpsBattery(make_system(), level=0.9)
        action = battery.charge(0.4)
        # Only (1.0 - 0.9)/0.8 = 0.125 absorbable.
        assert action.charge == pytest.approx(0.125)
        assert battery.level == pytest.approx(1.0)

    def test_never_exceeds_bmax(self):
        battery = UpsBattery(make_system(), level=0.99)
        battery.charge(10.0)
        assert battery.level <= 1.0 + 1e-12

    def test_negative_rejected(self):
        with pytest.raises(InfeasibleActionError):
            UpsBattery(make_system()).charge(-0.1)


class TestDischarge:
    def test_loss_factor_applied(self):
        battery = UpsBattery(make_system())
        action = battery.discharge(0.2)
        assert action.discharge == pytest.approx(0.2)
        # Drain is eta_d * delivered = 0.25.
        assert battery.level == pytest.approx(0.5 - 0.25)

    def test_rate_cap(self):
        battery = UpsBattery(make_system(), level=1.0)
        action = battery.discharge(2.0)
        assert action.discharge == pytest.approx(0.3)

    def test_reserve_respected(self):
        battery = UpsBattery(make_system(), level=0.2)
        action = battery.discharge(1.0)
        # Only (0.2-0.1)/1.25 = 0.08 deliverable.
        assert action.discharge == pytest.approx(0.08)
        assert battery.level == pytest.approx(0.1)

    def test_never_below_bmin(self):
        battery = UpsBattery(make_system(), level=0.11)
        battery.discharge(10.0)
        assert battery.level >= 0.1 - 1e-12

    def test_negative_rejected(self):
        with pytest.raises(InfeasibleActionError):
            UpsBattery(make_system()).discharge(-0.1)


class TestSettle:
    def test_surplus_charges(self):
        battery = UpsBattery(make_system())
        action = battery.settle(0.1)
        assert action.charge > 0.0
        assert action.discharge == 0.0

    def test_deficit_discharges(self):
        battery = UpsBattery(make_system())
        action = battery.settle(-0.1)
        assert action.discharge > 0.0
        assert action.charge == 0.0

    def test_zero_idles(self):
        battery = UpsBattery(make_system())
        action = battery.settle(0.0)
        assert not action.active
        assert action.charge == 0.0 and action.discharge == 0.0

    def test_exclusivity(self):
        # brc * bdc == 0 is structural: one action per slot.
        battery = UpsBattery(make_system())
        for net in (0.3, -0.2, 0.0, 0.5, -0.4):
            action = battery.settle(net)
            assert action.charge == 0.0 or action.discharge == 0.0


class TestStateInspection:
    def test_headroom_and_available(self):
        battery = UpsBattery(make_system())
        assert battery.headroom == pytest.approx(0.4)       # rate cap
        assert battery.available == pytest.approx(0.3)      # rate cap

    def test_reset(self):
        battery = UpsBattery(make_system())
        battery.discharge(0.2)
        battery.reset()
        assert battery.level == 0.5

    def test_reset_to_level(self):
        battery = UpsBattery(make_system())
        battery.reset(0.8)
        assert battery.level == 0.8

    def test_reset_out_of_range_rejected(self):
        with pytest.raises(InfeasibleActionError):
            UpsBattery(make_system()).reset(2.0)

    def test_repr(self):
        assert "UpsBattery" in repr(UpsBattery(make_system()))


class TestZeroBattery:
    def test_zero_capacity_is_inert(self):
        system = SystemConfig(b_max=0.0, b_min=0.0)
        battery = UpsBattery(system)
        assert battery.charge(1.0).charge == 0.0
        assert battery.discharge(1.0).discharge == 0.0
        assert battery.level == 0.0
