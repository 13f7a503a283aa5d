"""Two-timescale market models."""

import pytest

from repro.exceptions import ConfigurationError, InfeasibleActionError
from repro.grid.markets import LongTermMarket, MarketLedger, RealTimeMarket


class TestMarketLedger:
    def test_accumulates(self):
        ledger = MarketLedger("test")
        costs = [ledger.record(2.0, 40.0), ledger.record(1.0, 60.0)]
        assert ledger.energy == pytest.approx(3.0)
        assert costs == pytest.approx([80.0, 60.0])

    def test_zero_energy_not_a_transaction(self):
        ledger = MarketLedger("test")
        assert ledger.record(0.0, 40.0) == 0.0
        assert ledger.energy == 0.0


class TestLongTermMarket:
    def test_even_delivery(self):
        market = LongTermMarket(price_cap=200.0,
                                fine_slots_per_coarse=24)
        market.purchase_block(48.0, 40.0)
        assert market.per_fine_slot_energy == pytest.approx(2.0)

    def test_per_slot_costs_sum_to_block_cost(self):
        market = LongTermMarket(200.0, 24)
        market.purchase_block(30.0, 35.0)
        total = market.per_fine_slot_energy * 35.0 * 24
        assert total == pytest.approx(30.0 * 35.0)

    def test_block_replaces_previous(self):
        market = LongTermMarket(200.0, 4)
        market.purchase_block(8.0, 40.0)
        market.purchase_block(4.0, 50.0)
        assert market.per_fine_slot_energy == 1.0
        assert market.ledger.energy == pytest.approx(12.0)

    def test_price_above_cap_rejected(self):
        market = LongTermMarket(200.0, 24)
        with pytest.raises(InfeasibleActionError):
            market.purchase_block(1.0, 250.0)

    def test_negative_energy_rejected(self):
        market = LongTermMarket(200.0, 24)
        with pytest.raises(InfeasibleActionError):
            market.purchase_block(-1.0, 40.0)

    def test_invalid_t_rejected(self):
        with pytest.raises(ConfigurationError):
            LongTermMarket(200.0, 0)

    def test_invalid_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            LongTermMarket(0.0, 24)


class TestRealTimeMarket:
    def test_purchase_returns_cost(self):
        market = RealTimeMarket(200.0)
        assert market.purchase(0.5, 60.0) == pytest.approx(30.0)
        assert market.ledger.energy == pytest.approx(0.5)

    def test_zero_purchase_free(self):
        market = RealTimeMarket(200.0)
        assert market.purchase(0.0, 60.0) == 0.0

    def test_price_cap_enforced(self):
        market = RealTimeMarket(200.0)
        with pytest.raises(InfeasibleActionError):
            market.purchase(1.0, 201.0)

    def test_negative_price_rejected(self):
        market = RealTimeMarket(200.0)
        with pytest.raises(InfeasibleActionError):
            market.purchase(1.0, -1.0)
