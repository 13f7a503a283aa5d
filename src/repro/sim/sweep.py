"""Seed-averaged sweep tables.

Every figure in the paper is a sweep (over ``V``, ``T``, ``ε``,
battery size, penetration, noise, ``β``).  Sweeps run as fleets
(:class:`~repro.fleet.runner.FleetRunner`); a
:class:`~repro.fleet.store.ResultStore` folds a stored sweep's records
back into a :class:`SweepTable` (:meth:`~repro.fleet.store.ResultStore.sweep_table`):
one :class:`SweepPoint` of seed-averaged metrics per sweep value,
renderable as a text table::

    table = store.sweep_table(metrics=("time_avg_cost", "avg_delay_slots"))
    print(table.render())
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table


@dataclass(frozen=True)
class SweepPoint:
    """Seed-averaged metrics for one sweep value."""

    value: object
    metrics: dict[str, float]
    n_seeds: int


@dataclass(frozen=True)
class SweepTable:
    """Results of a whole sweep, renderable as a text table."""

    name: str
    points: tuple[SweepPoint, ...]
    metric_names: tuple[str, ...]

    def column(self, metric: str) -> list[float]:
        """One metric across the sweep, in value order."""
        if metric not in self.metric_names:
            raise KeyError(f"unknown metric {metric!r}; have "
                           f"{self.metric_names}")
        return [p.metrics[metric] for p in self.points]

    def render(self, precision: int = 3) -> str:
        """Aligned text table of every metric."""
        headers = ["value", *self.metric_names]
        rows = [[str(p.value),
                 *[p.metrics[m] for m in self.metric_names]]
                for p in self.points]
        return format_table(headers, rows, title=self.name,
                            precision=precision)

    def is_monotone(self, metric: str, increasing: bool,
                    slack: float = 0.01) -> bool:
        """Whether a metric moves monotonically along the sweep.

        ``slack`` tolerates small seed noise per step (1% default).
        """
        values = self.column(metric)
        if increasing:
            return all(b >= a * (1.0 - slack)
                       for a, b in zip(values, values[1:]))
        return all(b <= a * (1.0 + slack)
                   for a, b in zip(values, values[1:]))
