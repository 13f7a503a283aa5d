"""Shared plumbing for the per-figure experiment modules.

Every figure is a fleet on the setting the paper fixes in Section
VI-A: each ``fig*`` module builds :class:`~repro.fleet.spec.ScenarioSpec`
rows with :func:`paper_spec` (the paper system, ``paper`` traces from
one root seed, one controller each) and runs them in-process through
:func:`run_fleet`, the :class:`~repro.fleet.runner.FleetRunner` front
door.  Figures read only record columns.  :func:`build_scenario`
builds the same system and traces in memory, for the x-axis values
that are trace statistics rather than record columns (Fig. 8's demand
std, Fig. 10's demand total).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.config.presets import paper_system_config
from repro.config.system import SystemConfig
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import ScenarioSpec
from repro.rng import DEFAULT_SEED
from repro.traces.base import TraceSet
from repro.traces.library import make_paper_traces


#: V values of the paper's Fig. 6(a,b) sweep.
PAPER_V_SWEEP = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)

#: T values (hours) of the paper's Fig. 6(c,d) sweep.  A 30-day horizon
#: divides evenly by every value (744 h does not divide by 48).
PAPER_T_SWEEP = (3, 6, 12, 24, 48, 72, 144)
PAPER_T_SWEEP_DAYS = 30

#: ε values of Fig. 7.
PAPER_EPSILON_SWEEP = (0.25, 0.5, 1.0, 2.0)

#: Battery sizes (minutes of peak demand) of Fig. 7.
PAPER_BATTERY_SWEEP = (0.0, 15.0, 30.0)

#: Renewable penetration levels of Fig. 8.
PAPER_PENETRATION_SWEEP = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

#: Demand-variation scales of Fig. 8 (1.0 = the raw trace).
PAPER_VARIATION_SWEEP = (0.0, 0.5, 1.0, 1.5, 2.0)

#: Expansion factors of Fig. 10.
PAPER_BETA_SWEEP = (1.0, 2.0, 5.0, 10.0)


@dataclass(frozen=True)
class Scenario:
    """A fully built experimental setting."""

    system: SystemConfig
    traces: TraceSet
    seed: int


def build_scenario(seed: int = DEFAULT_SEED,
                   days: int = 31,
                   fine_slots_per_coarse: int = 24,
                   battery_minutes: float = 15.0) -> Scenario:
    """Construct the paper's evaluation setting (Section VI-A)."""
    system = paper_system_config(
        battery_minutes=battery_minutes, days=days,
        fine_slots_per_coarse=fine_slots_per_coarse)
    traces = make_paper_traces(system, seed=seed)
    return Scenario(system=system, traces=traces, seed=seed)


def paper_spec(seed: int, days: int,
               controller: Mapping[str, object] | None = None, *,
               trace: Mapping[str, object] | None = None,
               **system: object) -> ScenarioSpec:
    """One figure scenario: the paper system (``system`` overrides
    :func:`~repro.config.presets.paper_system_config` keywords, or sets
    ``expansion``), ``paper`` traces (``trace`` adds recipe options)
    and ``controller`` (SmartDPSS with the paper's defaults if
    omitted)."""
    return ScenarioSpec(
        seed=seed,
        system={"preset": "paper", "days": days, **system},
        controller=dict(controller or {"kind": "smartdpss"}),
        trace={"kind": "paper", **(trace or {})})


def run_fleet(specs: Sequence[ScenarioSpec],
              robustness: Mapping[str, object] | None = None
              ) -> list[dict]:
    """Each scenario's metrics record, in spec order.

    Runs in-process with ``fail_fast``: a figure missing a row means
    nothing, so the first failure propagates instead of being retried
    and quarantined.  ``robustness`` arms the runner's paired noisy
    re-run (Fig. 9).
    """
    runner = FleetRunner(specs, fail_fast=True, robustness=robustness)
    return [record["metrics"] for record in runner.run()]
