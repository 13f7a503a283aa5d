"""Backlog queue with FIFO delay ledger (eq. 2)."""

import pytest

from repro.workload.queue import BacklogQueue, DelayStats, ServedParcel
from repro.exceptions import InfeasibleActionError


class TestEquationTwoSemantics:
    def test_serve_then_admit_order(self):
        # Energy arriving in slot t cannot be served in slot t.
        queue = BacklogQueue()
        served = queue.step(service=1.0, arrivals=0.5, current_slot=0)
        assert served == []
        assert queue.backlog == pytest.approx(0.5)

    def test_service_capped_by_backlog(self):
        queue = BacklogQueue()
        queue.admit(0.3, arrival_slot=0)
        served = queue.serve(1.0, current_slot=1)
        assert sum(p.energy for p in served) == pytest.approx(0.3)
        assert queue.backlog == 0.0

    def test_scalar_matches_recurrence(self):
        # Q(t+1) = max(Q - s, 0) + a, checked over a scripted run.
        queue = BacklogQueue()
        q = 0.0
        script = [(0.0, 0.5), (0.2, 0.3), (1.0, 0.0), (0.1, 0.7)]
        for slot, (service, arrivals) in enumerate(script):
            queue.step(service, arrivals, slot)
            q = max(q - service, 0.0) + arrivals
            assert queue.backlog == pytest.approx(q)

    def test_negative_inputs_rejected(self):
        queue = BacklogQueue()
        with pytest.raises(InfeasibleActionError):
            queue.serve(-0.1, 0)
        with pytest.raises(InfeasibleActionError):
            queue.admit(-0.1, 0)


class TestFifoDelays:
    def test_delay_measured_in_slots(self):
        queue = BacklogQueue()
        queue.admit(1.0, arrival_slot=2)
        served = queue.serve(1.0, current_slot=7)
        assert served[0].delay_slots == 5

    def test_fifo_order(self):
        queue = BacklogQueue()
        queue.admit(0.4, arrival_slot=0)
        queue.admit(0.4, arrival_slot=1)
        served = queue.serve(0.4, current_slot=3)
        assert len(served) == 1
        assert served[0].delay_slots == 3  # the oldest parcel first

    def test_partial_parcel_service(self):
        queue = BacklogQueue()
        queue.admit(1.0, arrival_slot=0)
        first = queue.serve(0.4, current_slot=1)
        second = queue.serve(0.6, current_slot=2)
        assert first[0].energy == pytest.approx(0.4)
        assert second[0].energy == pytest.approx(0.6)
        assert second[0].delay_slots == 2

    def test_energy_conservation(self):
        queue = BacklogQueue()
        total_in, total_out = 0.0, 0.0
        for slot in range(50):
            arrivals = 0.1 + (slot % 3) * 0.2
            service = 0.25
            served = queue.step(service, arrivals, slot)
            total_in += arrivals
            total_out += sum(p.energy for p in served)
        assert total_in == pytest.approx(total_out + queue.backlog)
        assert queue.stats.served_energy == pytest.approx(total_out)

    def test_oldest_arrival_slot(self):
        # Service drains the oldest parcel first: its delay counts
        # from the earliest arrival slot.
        queue = BacklogQueue()
        assert queue.serve(1.0, current_slot=0) == []
        queue.admit(0.5, arrival_slot=3)
        queue.admit(0.5, arrival_slot=4)
        served = queue.serve(0.5, current_slot=5)
        assert [p.delay_slots for p in served] == [5 - 3]


class TestDelayStats:
    def test_energy_weighted_average(self):
        stats = DelayStats()
        stats.add(ServedParcel(energy=1.0, delay_slots=2))
        stats.add(ServedParcel(energy=3.0, delay_slots=6))
        assert stats.average_delay == pytest.approx(5.0)
        assert stats.max_delay == 6

    def test_histogram(self):
        stats = DelayStats()
        stats.add(ServedParcel(energy=1.0, delay_slots=2))
        stats.add(ServedParcel(energy=0.5, delay_slots=2))
        assert stats.histogram[2] == pytest.approx(1.5)

    def test_empty_average_zero(self):
        assert DelayStats().average_delay == 0.0


class TestHousekeeping:
    def test_has_backlog_indicator(self):
        queue = BacklogQueue()
        assert not queue.has_backlog
        queue.admit(0.1, 0)
        assert queue.has_backlog
        queue.serve(0.1, 1)
        assert not queue.has_backlog

    def test_reset(self):
        queue = BacklogQueue()
        queue.admit(1.0, 0)
        queue.serve(0.5, 1)
        queue.reset()
        assert queue.backlog == 0.0
        assert queue.stats.served_energy == 0.0

    def test_repr(self):
        assert "BacklogQueue" in repr(BacklogQueue())
