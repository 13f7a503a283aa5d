"""Headline summaries of a scalar result, computed straight off its series.

The batch engine's fold (:func:`repro.fleet.engine._fold`) is the one
production definition of every record column, and both engines share
it.  These functions state the same quantities separately — each a
NumPy reduction over one finished
:class:`~repro.sim.results.SimulationResult`'s per-slot series or its
own properties — so a test can check the fold against code that does
not reuse it (``tests/test_fleet_metrics.py``), and the Theorem 2
checker (:mod:`oracles.theory`) reads its backlog and availability
claims from them.  Do not rebuild them on top of the fold.
"""

from __future__ import annotations

from repro.sim.results import SimulationResult


def total_cost(result: SimulationResult) -> float:
    """Total operational cost over the horizon ($)."""
    return result.costs.total


def unserved_ds_total(result: SimulationResult) -> float:
    """Total delay-sensitive energy not served (MWh)."""
    return float(result.series["unserved_ds"].sum())


def battery_throughput(result: SimulationResult) -> float:
    """Total energy cycled through the battery (charge + discharge)."""
    series = result.series
    return float(series["charge"].sum() + series["discharge"].sum())


def final_backlog(result: SimulationResult) -> float:
    """Backlog left at the horizon end (MWh)."""
    return float(result.series["backlog"][-1])


def peak_backlog(result: SimulationResult) -> float:
    """Largest backlog observed (compare against Qmax)."""
    return float(result.series["backlog"].max())


def summary(result: SimulationResult) -> dict[str, float]:
    """One-row summary of the headline metrics."""
    costs = result.costs
    return {
        "time_avg_cost": result.time_average_cost,
        "total_cost": total_cost(result),
        "cost_lt": costs.long_term,
        "cost_rt": costs.real_time,
        "cost_battery": costs.battery,
        "cost_waste": costs.waste,
        "avg_delay_slots": result.average_delay_slots,
        "worst_delay_slots": float(result.worst_delay_slots),
        "availability": result.availability,
        "waste_mwh": result.waste_total,
        "battery_ops": float(result.battery_operations),
        "renewable_utilization": result.renewable_utilization,
        "peak_backlog": peak_backlog(result),
        "final_backlog": final_backlog(result),
    }
