"""Cycle ledger and per-operation cost (eq. 9, Section II-B.5)."""

import pytest

from repro.battery.lifetime import CycleLedger
from repro.config.presets import paper_system_config
from repro.config.system import SystemConfig
from repro.exceptions import ConfigurationError, InfeasibleActionError


class TestPerOperationCost:
    def test_paper_value(self):
        # Cb = Cbuy / Ccycle = $500 / 5000 operations.
        assert paper_system_config().battery_op_cost == pytest.approx(0.1)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(battery_op_cost=-1.0)


class TestRecording:
    def test_charge_costs_cb(self):
        ledger = CycleLedger(op_cost=0.1)
        assert ledger.record(0.3, 0.0) == pytest.approx(0.1)
        assert ledger.operations == 1

    def test_discharge_costs_cb(self):
        ledger = CycleLedger(op_cost=0.1)
        assert ledger.record(0.0, 0.2) == pytest.approx(0.1)
        assert ledger.operations == 1

    def test_idle_costs_nothing(self):
        ledger = CycleLedger(op_cost=0.1)
        assert ledger.record(0.0, 0.0) == 0.0
        assert ledger.operations == 0

    def test_amount_does_not_matter(self):
        # The paper ignores the energy amount in the operation cost.
        ledger = CycleLedger(op_cost=0.1)
        assert ledger.record(0.001, 0.0) == ledger.record(0.5, 0.0)

    def test_simultaneous_charge_discharge_rejected(self):
        ledger = CycleLedger(op_cost=0.1)
        with pytest.raises(InfeasibleActionError):
            ledger.record(0.1, 0.1)

    def test_negative_rejected(self):
        ledger = CycleLedger(op_cost=0.1)
        with pytest.raises(InfeasibleActionError):
            ledger.record(-0.1, 0.0)


class TestBudget:
    def test_unbounded_by_default(self):
        ledger = CycleLedger(op_cost=0.1)
        assert ledger.remaining is None
        assert not ledger.exhausted

    def test_budget_counts_down(self):
        ledger = CycleLedger(op_cost=0.1, budget=2)
        ledger.record(0.1, 0.0)
        assert ledger.remaining == 1
        ledger.record(0.0, 0.1)
        assert ledger.remaining == 0
        assert ledger.exhausted

    def test_idle_does_not_consume_budget(self):
        ledger = CycleLedger(op_cost=0.1, budget=1)
        for _ in range(5):
            ledger.record(0.0, 0.0)
        assert ledger.remaining == 1

    def test_zero_budget_exhausted_immediately(self):
        assert CycleLedger(op_cost=0.1, budget=0).exhausted

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            CycleLedger(op_cost=0.1, budget=-1)

    def test_negative_op_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            CycleLedger(op_cost=-0.1)

    def test_reset_clears_counters_keeps_budget(self):
        ledger = CycleLedger(op_cost=0.1, budget=3)
        ledger.record(0.1, 0.0)
        ledger.reset()
        assert ledger.operations == 0
        assert ledger.remaining == 3

    def test_repr(self):
        assert "CycleLedger" in repr(CycleLedger(op_cost=0.1))
