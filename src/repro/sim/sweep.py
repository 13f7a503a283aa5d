"""Generic parameter-sweep runner.

Every figure in the paper is a sweep (over ``V``, ``T``, ``ε``,
battery size, penetration, noise, ``β``).  The experiment modules each
encode their figure's specifics; this runner is the reusable core for
*users* of the library who want their own sweeps with seed replication
and tabulation built in::

    sweep = Sweep(
        name="my V sweep",
        values=[0.1, 1.0, 10.0],
        build=lambda v, seed: (system,
                               SmartDPSS(config.replace(v=v)),
                               make_paper_traces(system, seed=seed)),
    )
    table = sweep.run(seeds=[1, 2, 3])
    print(table.render())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.tables import format_table
from repro.sim.batch import RunSpec, simulate_many
from repro.sim.results import SimulationResult
from repro.exceptions import ConfigurationError

#: Metrics extracted per run by default (name → extractor).
DEFAULT_METRICS: dict[str, Callable[[SimulationResult], float]] = {
    "time_avg_cost": lambda r: r.time_average_cost,
    "avg_delay_slots": lambda r: r.average_delay_slots,
    "worst_delay_slots": lambda r: float(r.worst_delay_slots),
    "availability": lambda r: r.availability,
    "waste_mwh": lambda r: r.waste_total,
    "battery_ops": lambda r: float(r.battery_operations),
}


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


@dataclass
class Sweep:
    """A declarative sweep: values × seeds → seed-averaged metrics.

    ``build(value, seed)`` returns ``(system, controller, traces)``
    (optionally a 4-tuple ending with observed traces) for one run.
    """

    name: str
    values: Sequence[object]
    build: Callable[[object, int], tuple]
    metrics: dict[str, Callable[[SimulationResult], float]] = field(
        default_factory=lambda: dict(DEFAULT_METRICS))

    def run(self, seeds: Sequence[int] = (0,),
            executor: str = "serial") -> SweepTable:
        """Execute every (value, seed) pair and average per value.

        ``executor`` selects the engine strategy (see
        :func:`repro.sim.batch.simulate_many`): ``"serial"`` runs the
        scalar simulator one run at a time, ``"batch"`` advances
        compatible runs in lockstep through the vectorized engine
        (identical results, one NumPy dispatch for the whole fleet per
        slot).  For multi-core sweeps, or sweeps beyond ~10⁴ runs, see
        the memory-bounded fleet pipeline in :mod:`repro.fleet`.
        """
        if not self.values:
            raise ConfigurationError("sweep has no values")
        if not seeds:
            raise ConfigurationError("sweep needs at least one seed")
        runs = []
        for value in self.values:
            for seed in seeds:
                built = self.build(value, seed)
                if len(built) == 3:
                    system, controller, traces = built
                    observed = None
                elif len(built) == 4:
                    system, controller, traces, observed = built
                else:
                    raise ConfigurationError(
                        "build() must return (system, controller, "
                        "traces[, observed])")
                runs.append(RunSpec(system=system, controller=controller,
                                    traces=traces, observed=observed))
        results = simulate_many(runs, executor=executor)

        points = []
        per_value = len(seeds)
        for index, value in enumerate(self.values):
            chunk = results[index * per_value:(index + 1) * per_value]
            totals = {name: 0.0 for name in self.metrics}
            for result in chunk:
                for name, extract in self.metrics.items():
                    totals[name] += extract(result)
            averaged = {name: total / per_value
                        for name, total in totals.items()}
            points.append(SweepPoint(value=value, metrics=averaged,
                                     n_seeds=per_value))
        return SweepTable(name=self.name, points=tuple(points),
                          metric_names=tuple(self.metrics))
