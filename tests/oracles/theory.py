"""Verify Theorem 2's guarantees on a finished simulation.

Theorem 2 promises, for ``0 < V ≤ Vmax``:

1. the battery virtual queue ``X`` is deterministically bounded;
2. the physical battery stays in ``[Bmin, Bmax]``;
3. the backlog ``Q`` and the delay queue ``Y`` stay below
   ``Qmax`` / ``Ymax``;
4. every deferred unit is served within ``λmax`` slots;
5. the time-average cost is within ``H2/V`` of the offline optimum.

:func:`verify_theorem2` evaluates each claim against recorded series,
using the implementation-consistent bound variant by default (the
printed constants carry a ``T`` inconsistency — see
:mod:`repro.core.bounds`).  Claims 1-4 are hard checks; claim 5 needs
the offline optimum, supplied optionally.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bounds import BoundVariant, TheoreticalBounds, compute_bounds
from repro.sim.results import SimulationResult

#: Numerical slack for float comparisons against bounds.
_SLACK = 1e-6


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of one theorem-claim verification."""

    claim: str
    holds: bool
    observed: float
    bound: float

    def __str__(self) -> str:
        status = "OK " if self.holds else "FAIL"
        return (f"[{status}] {self.claim}: observed {self.observed:.4f} "
                f"vs bound {self.bound:.4f}")


def verify_theorem2(result: SimulationResult,
                    v: float,
                    epsilon: float,
                    price_cap_normalized: float,
                    y_peak: float | None = None,
                    offline_time_average: float | None = None,
                    variant: BoundVariant = BoundVariant.IMPLEMENTATION,
                    ) -> list[BoundCheck]:
    """Check every Theorem 2 claim that the result's data supports.

    Parameters
    ----------
    result:
        A finished simulation (any controller, though the bounds are
        only *promised* for SmartDPSS).
    v / epsilon / price_cap_normalized:
        The controller parameters the bounds depend on (prices in the
        controller's normalized units).
    y_peak:
        Peak of the controller's ``Y`` queue
        (``controller._y_queue.peak`` for SmartDPSS); skipped if
        ``None``.
    offline_time_average:
        Offline optimum ``φopt`` per slot; enables the cost-gap check.
    """
    bounds: TheoreticalBounds = compute_bounds(
        result.system, v, epsilon, price_cap_normalized, variant=variant)
    checks: list[BoundCheck] = []

    levels = result.series["battery_level"]
    b_lo, b_hi = float(levels.min()), float(levels.max())
    checks.append(BoundCheck(
        claim="battery level >= Bmin (Thm 2-2)",
        holds=b_lo >= result.system.b_min - _SLACK,
        observed=b_lo, bound=result.system.b_min))
    checks.append(BoundCheck(
        claim="battery level <= Bmax (Thm 2-2)",
        holds=b_hi <= result.system.b_max + _SLACK,
        observed=b_hi, bound=result.system.b_max))

    checks.append(BoundCheck(
        claim="backlog Q <= Qmax (Thm 2-3)",
        holds=result.peak_backlog <= bounds.q_max + _SLACK,
        observed=result.peak_backlog, bound=bounds.q_max))

    if y_peak is not None:
        checks.append(BoundCheck(
            claim="delay queue Y <= Ymax (Thm 2-3)",
            holds=y_peak <= bounds.y_max + _SLACK,
            observed=y_peak, bound=bounds.y_max))

    checks.append(BoundCheck(
        claim="worst-case delay <= lambda_max (Thm 2-4)",
        holds=result.worst_delay_slots <= bounds.lambda_max,
        observed=float(result.worst_delay_slots),
        bound=float(bounds.lambda_max)))

    checks.append(BoundCheck(
        claim="availability = 1 (Thm 2-2 corollary)",
        holds=result.unserved_ds_total <= _SLACK,
        observed=result.availability, bound=1.0))

    if offline_time_average is not None:
        gap = result.time_average_cost - offline_time_average
        checks.append(BoundCheck(
            claim="cost gap <= H2/V (Thm 2-5)",
            holds=gap <= bounds.cost_gap + _SLACK,
            observed=gap, bound=bounds.cost_gap))
    return checks


def all_hold(checks: list[BoundCheck]) -> bool:
    """Whether every verified claim holds."""
    return all(check.holds for check in checks)
