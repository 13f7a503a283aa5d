"""Host-speed gauge: a fixed CPU kernel timed on each vCPU.

On a shared host each vCPU switches, independently and for a second to
a minute at a time, between full speed and about 60% of it (another
tenant's thread on the same physical core).  CPU time slows as much as
wall-clock, so a fleet run's time says as much about its neighbours as
about the program.  ``measure.py`` therefore times :func:`kernel` on
every vCPU between fleet runs (:func:`gauge`), runs a single-process
fleet pinned to the vCPU that is fastest at that moment (:func:`run_on`),
and records the kernel time on the vCPUs the run used.  ``run.py``
reports the runs whose gauges read fastest, scaled to the reference
kernel time :data:`NOMINAL_S`.  The kernel is part of the benchmark,
not of the program, so a change to the program moves the scaled figure
and a change of host speed barely does.

The kernel mimics the fleet's mix: a Python loop of small NumPy ops
over a batch-sized vector (the slot loop), plain float and dict work
and ``json.dumps`` (spec and record handling).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

import numpy as np

#: Loop iterations of one kernel call (about 15 ms on a 2.x GHz core at
#: full speed).
ITERATIONS = 1500

#: The kernel time that defines the reference host.  A scaled figure is
#: what the fleet would do on a host where one kernel call takes this
#: long: a rate is multiplied, and a time divided, by
#: ``measured kernel time / NOMINAL_S``.
NOMINAL_S = 0.015

#: Kernel calls per vCPU and gauge; the fastest one counts.
REPS = 2


def kernel() -> float:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    price = np.linspace(20.0, 80.0, 240)
    level = np.full(240, 0.5)
    record = {"v": 0.0, "cost": 0.0, "slots": 0}
    total = 0.0
    for i in range(ITERATIONS):
        demand = price * (1.0 + 1e-5 * i)
        charge = np.minimum(np.maximum(demand - 50.0, 0.0), 1.0 - level)
        level = np.clip(level + 0.01 * charge - 0.005, 0.0, 1.0)
        total += float(charge.sum())
        record["v"] = (record["v"] + total * 1e-9) % 1.0
        record["cost"] += 0.5 * i - (i % 7)
        record["slots"] = i
        if i % 25 == 0:
            total += len(json.dumps(record, sort_keys=True))
    return total


def cpus() -> list[int]:
    """The vCPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))


@contextmanager
def run_on(cpu_set):
    """Run this process (and the children it starts) on ``cpu_set`` only."""
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpu_set)
    try:
        yield
    finally:
        os.sched_setaffinity(0, home)


def gauge(cpu_list) -> dict[int, float]:
    """Kernel CPU seconds on each vCPU of ``cpu_list`` (fastest of
    ``REPS`` calls each)."""
    times = {}
    for cpu in cpu_list:
        with run_on({cpu}):
            best = float("inf")
            for _ in range(REPS):
                t0 = time.process_time()
                kernel()
                best = min(best, time.process_time() - t0)
        times[cpu] = best
    return times


def fastest(times: dict[int, float]) -> int:
    """The vCPU with the shortest kernel time."""
    return min(times, key=times.get)
