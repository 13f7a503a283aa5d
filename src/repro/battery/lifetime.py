"""UPS lifetime accounting (paper Section II-B.5, eq. 9).

The paper models battery wear with two devices:

* a per-operation cost ``Cb = Cbuy / Ccycle`` added to the slot cost
  whenever the battery charges or discharges (``n(τ) = 1``);
* a hard budget ``Nmax`` on the number of active slots over the
  horizon — constraint (9) — protecting the UPS's calendar life.

:class:`CycleLedger` tracks both.  The SmartDPSS controller consults
:meth:`CycleLedger.exhausted` before planning battery use, and the
simulation engine records the per-slot operation cost from
:meth:`CycleLedger.record`.
"""

from __future__ import annotations
from repro.exceptions import ConfigurationError, InfeasibleActionError


class CycleLedger:
    """Tracks charge/discharge operations against the ``Nmax`` budget.

    Parameters
    ----------
    op_cost:
        Dollar cost per active slot [``Cb``].
    budget:
        Maximum number of active slots [``Nmax``]; ``None`` means
        unconstrained (the paper's default evaluation leaves eq. 9
        implicit).
    """

    def __init__(self, op_cost: float, budget: int | None = None):
        if op_cost < 0:
            raise ConfigurationError(f"op cost must be >= 0, got {op_cost}")
        if budget is not None and budget < 0:
            raise ConfigurationError(f"budget must be >= 0, got {budget}")
        self.op_cost = op_cost
        self.budget = budget
        self._operations = 0

    # ------------------------------------------------------------------
    # Budget state
    # ------------------------------------------------------------------

    @property
    def operations(self) -> int:
        """Total active slots so far (``Σ n(τ)``)."""
        return self._operations

    @property
    def remaining(self) -> int | None:
        """Operations left in the budget (``None`` if unconstrained)."""
        if self.budget is None:
            return None
        return max(0, self.budget - self._operations)

    @property
    def exhausted(self) -> bool:
        """Whether constraint (9) forbids further battery activity."""
        return self.remaining == 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, charge: float, discharge: float) -> float:
        """Account one slot's battery action; returns its dollar cost.

        The cost is ``n(τ)·Cb``: ``Cb`` if the battery was active in
        either direction (the paper charges the same cost for charge
        and discharge, "ignoring the impact of the amount"), zero
        otherwise.
        """
        if charge < 0 or discharge < 0:
            raise InfeasibleActionError("charge/discharge must be >= 0, got "
                             f"({charge}, {discharge})")
        if charge > 0 and discharge > 0:
            raise InfeasibleActionError(
                "battery cannot charge and discharge in the same slot "
                f"(brc·bdc ≡ 0), got ({charge}, {discharge})")
        if charge == 0 and discharge == 0:
            return 0.0
        self._operations += 1
        return self.op_cost

    def __repr__(self) -> str:
        budget = "inf" if self.budget is None else str(self.budget)
        return (f"CycleLedger(operations={self._operations}, "
                f"budget={budget}, Cb={self.op_cost})")
