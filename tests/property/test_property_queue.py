"""Property-based tests: backlog queue (eq. 2) and delay ledger.

Invariants under arbitrary arrival/service schedules: the scalar
recurrence matches eq. (2) exactly, the FIFO parcel ledger conserves
energy against the scalar, delays are FIFO-monotone, and the ε-persistent
queue's update matches eq. (12).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.virtual_queues import DelayAwareQueue
from repro.workload.queue import BacklogQueue

schedules = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=2.0),   # service
              st.floats(min_value=0.0, max_value=1.0)),  # arrivals
    min_size=1, max_size=80)


@settings(max_examples=150, deadline=None)
@given(schedule=schedules)
def test_scalar_matches_eq2(schedule):
    queue = BacklogQueue()
    q = 0.0
    for slot, (service, arrivals) in enumerate(schedule):
        queue.step(service, arrivals, slot)
        q = max(q - service, 0.0) + arrivals
        assert queue.backlog == pytest.approx(q, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(schedule=schedules)
def test_energy_conservation(schedule):
    queue = BacklogQueue()
    arrived = served = 0.0
    for slot, (service, arrivals) in enumerate(schedule):
        parcels = queue.step(service, arrivals, slot)
        arrived += arrivals
        served += sum(p.energy for p in parcels)
    assert arrived == pytest.approx(served + queue.backlog, abs=1e-6)
    assert queue.stats.served_energy == pytest.approx(served, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(schedule=schedules)
def test_delays_nonnegative_and_fifo(schedule):
    queue = BacklogQueue()
    for slot, (service, arrivals) in enumerate(schedule):
        parcels = queue.step(service, arrivals, slot)
        delays = [p.delay_slots for p in parcels]
        # Within one service call, FIFO delays are non-increasing
        # (older parcels first).
        assert delays == sorted(delays, reverse=True)
        assert all(d >= 0 for d in delays)


@settings(max_examples=150, deadline=None)
@given(schedule=schedules, epsilon=st.floats(min_value=0.05,
                                             max_value=2.0))
def test_delay_queue_matches_eq12(schedule, epsilon):
    queue = BacklogQueue()
    delay_queue = DelayAwareQueue(epsilon)
    y = 0.0
    for slot, (service, arrivals) in enumerate(schedule):
        had_backlog = queue.has_backlog
        parcels = queue.step(service, arrivals, slot)
        served = sum(p.energy for p in parcels)
        delay_queue.update(served, had_backlog)
        growth = epsilon if had_backlog else 0.0
        y = max(y - served + growth, 0.0)
        assert delay_queue.value == pytest.approx(y, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(schedule=schedules)
# One parcel served at delay 3: 0.094 * 3 / 0.094 rounds above 3.
@example(schedule=[(0.0, 0.094), (0.0, 0.0), (0.0, 0.0), (2.0, 0.0)])
def test_stats_average_within_observed_range(schedule):
    queue = BacklogQueue()
    for slot, (service, arrivals) in enumerate(schedule):
        queue.step(service, arrivals, slot)
    stats = queue.stats
    if stats.served_energy > 0:
        assert 0.0 <= stats.average_delay <= stats.max_delay
        assert stats.max_delay <= len(schedule)
