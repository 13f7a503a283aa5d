"""Shared plumbing for the per-figure experiment modules.

Centralizes scenario construction (system + traces + controllers) so
every figure runs on the identical setup the paper fixes in Section
VI-A.  Each ``fig*`` module builds its run specs here and hands its
whole (value × seed) fleet to
:func:`repro.sim.batch.simulate_many` in one call, so compatible runs
advance in vectorized lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import ImpatientController, OfflineOptimal
from repro.config.control import SmartDPSSConfig
from repro.config.presets import paper_controller_config, paper_system_config
from repro.config.system import SystemConfig
from repro.core.smartdpss import SmartDPSS
from repro.rng import DEFAULT_SEED
from repro.sim.batch import RunSpec
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


def spec_smartdpss(scenario: Scenario,
                   config: SmartDPSSConfig | None = None,
                   observed: TraceSet | None = None,
                   system: SystemConfig | None = None) -> RunSpec:
    """A SmartDPSS run spec (optionally with noisy observations)."""
    return RunSpec(system=system or scenario.system,
                   controller=SmartDPSS(config or paper_controller_config()),
                   traces=scenario.traces, observed=observed)


def spec_impatient(scenario: Scenario,
                   system: SystemConfig | None = None) -> RunSpec:
    """An Impatient-baseline run spec."""
    return RunSpec(system=system or scenario.system,
                   controller=ImpatientController(),
                   traces=scenario.traces)


def spec_offline(scenario: Scenario,
                 system: SystemConfig | None = None) -> RunSpec:
    """A clairvoyant offline-benchmark run spec."""
    return RunSpec(system=system or scenario.system,
                   controller=OfflineOptimal(scenario.traces),
                   traces=scenario.traces)
