"""Vectorized physical state for the batch simulation engine.

Each class here is the array-form twin of a scalar physics object —
:class:`~repro.battery.model.UpsBattery`,
:class:`~repro.workload.queue.BacklogQueue`,
:class:`~repro.battery.lifetime.CycleLedger` and the two market
ledgers — holding the state of ``B`` independent scenarios in ``(B,)``
arrays and advancing all of them in place per slot.  Per-slot updates
take their outputs and scratch as caller-owned buffers (the engine's
:class:`~repro.fleet.engine.PhysicsWorkspace`), so the slot loop
allocates nothing.

Exactness contract: every update below performs the *same arithmetic
in the same order* as its scalar twin (NumPy float64 operations are
IEEE-754 doubles, identical to Python floats), so a batch run is
bit-for-bit equal to ``B`` scalar runs.  The equivalence harness under
``tests/equivalence/`` enforces this slot-for-slot; change the scalar
engine and this module together or those tests will fail.

The one piece that stays scalar is the FIFO delay ledger: per-parcel
delay statistics are inherently sequential, so :class:`DelayReplay`
reconstructs them off the per-slot hot path by replaying the realized
service/arrival series through the exact dynamics of
:class:`~repro.workload.queue.BacklogQueue`, chunk by chunk in the
engine's aggregator.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.workload.queue import DelayStats
from repro.exceptions import ConfigurationError

#: Scalar backlog indicator tolerance (``BacklogQueue._TOLERANCE``).
_Q_TOLERANCE = 1e-9


def as_batch_array(values, n: int, name: str) -> np.ndarray:
    """Broadcast a scalar or length-``n`` sequence to a ``(n,)`` array."""
    array = np.asarray(values, dtype=float)
    if array.ndim == 0:
        array = np.full(n, float(array))
    if array.shape != (n,):
        raise ConfigurationError(
            f"{name} must be scalar or shape ({n},), got {array.shape}")
    return array


class VecBattery:
    """``B`` independent UPS batteries (eqs. 3, 7, 8) in array form.

    Mirrors :class:`~repro.battery.model.UpsBattery`: request-style
    charge/discharge with every clamp applied, so no policy can push a
    stored level outside ``[Bmin, Bmax]``.
    """

    def __init__(self, b_min, b_max, b_charge_max, b_discharge_max,
                 eta_c, eta_d, initial, n: int):
        self.b_min = as_batch_array(b_min, n, "b_min")
        self.b_max = as_batch_array(b_max, n, "b_max")
        self.b_charge_max = as_batch_array(b_charge_max, n, "b_charge_max")
        self.b_discharge_max = as_batch_array(
            b_discharge_max, n, "b_discharge_max")
        self.eta_c = as_batch_array(eta_c, n, "eta_c")
        self.eta_d = as_batch_array(eta_d, n, "eta_d")
        self.level = as_batch_array(initial, n, "initial")

    def settle(self, charge_request: np.ndarray,
               discharge_request: np.ndarray, accepted: np.ndarray,
               scratch: np.ndarray) -> np.ndarray:
        """One slot of elementwise-disjoint charge and discharge.

        The caller has already clamped ``discharge_request`` to the
        pre-settlement :meth:`available`, so the discharge needs no
        re-clamping here.  The charge is clamped to the headroom
        (``max_charge_energy``) and written into ``accepted``
        (returned); :attr:`level` is mutated in place.  Zero requests
        on either side leave levels bit-identical to the scalar
        engine's untouched-battery path (``min(Bmax, b + ηc·0) = b``
        because ``b ≤ Bmax`` is an invariant).
        """
        # headroom: min(b_charge_max, max(0, b_max - level) / eta_c)
        np.subtract(self.b_max, self.level, out=scratch)
        np.maximum(0.0, scratch, out=scratch)
        np.divide(scratch, self.eta_c, out=scratch)
        np.minimum(self.b_charge_max, scratch, out=scratch)
        np.minimum(charge_request, scratch, out=accepted)
        np.multiply(self.eta_c, accepted, out=scratch)
        np.add(self.level, scratch, out=self.level)
        np.minimum(self.b_max, self.level, out=self.level)
        np.multiply(self.eta_d, discharge_request, out=scratch)
        np.subtract(self.level, scratch, out=self.level)
        np.maximum(self.b_min, self.level, out=self.level)
        return accepted

    def available(self, out: np.ndarray) -> np.ndarray:
        """Servable bus energy per scenario (``max_discharge_energy``),
        written into ``out``."""
        np.subtract(self.level, self.b_min, out=out)
        np.maximum(0.0, out, out=out)
        np.divide(out, self.eta_d, out=out)
        np.minimum(self.b_discharge_max, out, out=out)
        return out


class VecBacklog:
    """``B`` scalar backlog queues ``Q`` (paper eq. 2) in array form.

    Only the scalar dynamics live here; the FIFO delay ledger is
    replayed off the slot loop by :class:`DelayReplay`.
    """

    def __init__(self, n: int):
        self.backlog = np.zeros(n)

    def has_backlog(self, out: np.ndarray) -> np.ndarray:
        """Indicator ``1{Q(τ) > 0}`` with the scalar tolerance, written
        into ``out``."""
        np.greater(self.backlog, _Q_TOLERANCE, out=out)
        return out

    def step(self, service: np.ndarray, arrivals: np.ndarray,
             scratch: np.ndarray) -> None:
        """Serve then admit, exactly as ``BacklogQueue.step`` (in
        place)."""
        np.minimum(service, self.backlog, out=scratch)
        np.subtract(self.backlog, scratch, out=self.backlog)
        np.maximum(0.0, self.backlog, out=self.backlog)
        np.add(self.backlog, arrivals, out=self.backlog)


class VecCycleLedger:
    """``B`` cycle ledgers (eq. 9) in array form."""

    def __init__(self, op_cost, budgets, n: int):
        self.op_cost = as_batch_array(op_cost, n, "op_cost")
        # None (unconstrained) maps to +inf so ``remaining`` never hits 0.
        self.budget = np.array(
            [np.inf if b is None else float(b) for b in budgets])
        if self.budget.shape != (n,):
            raise ConfigurationError(f"budgets must have length {n}")
        self.operations = np.zeros(n, dtype=np.int64)

    @property
    def remaining(self) -> np.ndarray:
        """Operations left (float array; +inf when unconstrained)."""
        return np.maximum(0.0, self.budget - self.operations)

    def remaining_into(self, out: np.ndarray) -> np.ndarray:
        """:attr:`remaining`, written into ``out`` (no allocations)."""
        np.subtract(self.budget, self.operations, out=out)
        np.maximum(0.0, out, out=out)
        return out

    def record(self, charge: np.ndarray, discharge: np.ndarray,
               cost: np.ndarray, mask_a: np.ndarray,
               mask_b: np.ndarray) -> np.ndarray:
        """Account one slot → per-scenario dollar cost in ``cost``
        (``mask_a`` / ``mask_b`` are boolean scratch)."""
        np.greater(charge, 0, out=mask_a)
        np.greater(discharge, 0, out=mask_b)
        np.logical_or(mask_a, mask_b, out=mask_a)
        np.add(self.operations, mask_a, out=self.operations)
        np.copyto(cost, 0.0)
        np.copyto(cost, self.op_cost, where=mask_a)
        return cost


class VecMarketLedger:
    """Energy/spend accounting for ``B`` scenarios."""

    def __init__(self, n: int):
        self.energy = np.zeros(n)
        self.spend = np.zeros(n)

    def record(self, energy: np.ndarray, price: np.ndarray,
               cost: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Record purchases → per-scenario costs written to ``cost``.

        Masked in-place accumulation: lanes with non-positive energy
        keep their running totals untouched, which equals the scalar
        ledger's skipped purchase (the accumulators never hold
        ``-0.0``, so adding a zero would not change them either).
        """
        np.multiply(energy, price, out=cost)
        np.greater(energy, 0, out=mask)
        np.add(self.energy, energy, out=self.energy, where=mask)
        np.add(self.spend, cost, out=self.spend, where=mask)
        return cost


class DelayReplay:
    """Stateful FIFO delay-ledger replay, fed any number of windows.

    Replays realized service and true arrivals through the exact
    dynamics of :class:`~repro.workload.queue.BacklogQueue` (same
    serve-then-admit order, same tolerances, same accumulation order),
    reproducing bit-for-bit the served energy, weighted delay and
    maximum delay the scalar engine accumulates inline — the three
    statistics a record reads (:func:`~repro.fleet.engine._fold`).
    It keeps no per-delay histogram (nothing reads one); the scalar
    queue keeps it for the tests that compare histograms.  The
    streaming engine (:mod:`repro.fleet.engine`) feeds it chunk by
    chunk; one full-horizon window gives the same arithmetic, which is
    what keeps the chunked path exact.  Written as a tight
    local-variable loop because it runs once per batch member over
    the whole horizon.
    """

    __slots__ = ("backlog", "parcels", "served_energy", "weighted_delay",
                 "max_delay")

    def __init__(self):
        self.backlog = 0.0
        self.parcels: deque[list] = deque()
        self.served_energy = 0.0
        self.weighted_delay = 0.0
        self.max_delay = 0

    def extend(self, start_slot: int, served_dt: Sequence[float],
               arrivals_dt: Sequence[float]) -> None:
        """Replay slots ``[start_slot, start_slot + len(served_dt))``.

        ``served_dt`` and ``arrivals_dt`` are plain float sequences
        (one row of a block's ``tolist()``).
        """
        tolerance = _Q_TOLERANCE
        backlog = self.backlog
        parcels = self.parcels
        served_energy = self.served_energy
        weighted_delay = self.weighted_delay
        max_delay = self.max_delay
        slot = start_slot
        for amount, arrivals in zip(served_dt, arrivals_dt):
            # serve (eq. 2's max{·, 0} drain, oldest parcels first)
            to_serve = amount if amount < backlog else backlog
            remaining = to_serve
            while remaining > tolerance and parcels:
                head = parcels[0]
                arrival_slot, energy = head
                take = energy if energy < remaining else remaining
                delay = slot - arrival_slot
                if delay < 0:
                    delay = 0
                served_energy += take
                weighted_delay += take * delay
                if delay > max_delay:
                    max_delay = delay
                remaining -= take
                if take >= energy - tolerance:
                    parcels.popleft()
                else:
                    head[1] = energy - take
            backlog = max(0.0, backlog - to_serve)
            # admit the slot's arrivals at the queue tail
            if arrivals > tolerance:
                parcels.append([slot, arrivals])
            backlog += arrivals
            slot += 1
        self.backlog = backlog
        self.served_energy = served_energy
        self.weighted_delay = weighted_delay
        self.max_delay = max_delay

    def stats(self) -> DelayStats:
        """The replayed statistics (with an empty histogram)."""
        return DelayStats(served_energy=self.served_energy,
                          weighted_delay=self.weighted_delay,
                          max_delay=self.max_delay)
