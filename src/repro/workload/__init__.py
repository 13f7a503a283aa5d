"""Demand-side substrate: the delay-tolerant backlog queue.

The paper queues delay-tolerant energy demand in ``Q(τ)`` (eq. 2) and
guarantees each unit is served within ``λmax``.  Reporting *actual*
service delays (Figs. 6b, 6d) needs more state than the scalar ``Q``:
:class:`~repro.workload.queue.BacklogQueue` keeps a FIFO ledger of
arrival parcels so every served MWh knows how long it waited.
"""

from repro.workload.queue import BacklogQueue, DelayStats, ServedParcel

__all__ = ["BacklogQueue", "DelayStats", "ServedParcel"]
