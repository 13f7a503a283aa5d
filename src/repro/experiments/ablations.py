"""Ablation studies for the design decisions DESIGN.md calls out.

* **Abl-1, objective mode** — the P5 objective exactly as printed in
  the paper versus the first-principles derivation (DESIGN.md §2).
* **Abl-2, cycle budget** — constraint (9)'s ``Nmax`` from
  unconstrained down to one operation per day.
* **Abl-3, battery trade margin** — the break-even wedge
  (``SmartDPSSConfig.battery_price_margin``) from 0 to aggressive.
* **Abl-4, P4 deferrable-arrivals planning** — sizing the advance
  block for expected deferrable arrivals versus leaving deferred load
  to the V-gated real-time stage.
* **Abl-5, extra baselines** — the myopic price-threshold heuristic
  (separating generic price-awareness from the Lyapunov machinery),
  the perfect-forecast T-step lookahead MPC (what the oracle the
  paper's related work assumes is worth), and the paper's own
  per-window P2 offline construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.baselines.lookahead import LookaheadController, PaperP2Offline
from repro.baselines.myopic import MyopicPriceThreshold
from repro.config.control import ObjectiveMode
from repro.config.presets import paper_controller_config, paper_system_config
from repro.core.smartdpss import SmartDPSS
from repro.experiments.common import (
    Scenario,
    build_scenario,
)
from repro.rng import DEFAULT_SEED
from repro.sim.batch import RunSpec, simulate_many


@dataclass(frozen=True)
class AblationRow:
    """One ablation setting's outcome."""

    study: str
    label: str
    time_avg_cost: float
    avg_delay_slots: float
    availability: float
    battery_ops: int


@dataclass(frozen=True)
class AblationResult:
    """All ablation rows, grouped by study label."""

    rows: tuple[AblationRow, ...]

    def study(self, name: str) -> list[AblationRow]:
        """Rows of one study, in run order."""
        return [r for r in self.rows if r.study == name]


def _spec(scenario: Scenario, controller, system=None) -> RunSpec:
    return RunSpec(system=system or scenario.system,
                   controller=controller, traces=scenario.traces)


def run_ablations(seed: int = DEFAULT_SEED, days: int = 31,
                  ) -> AblationResult:
    """Run every ablation study on the shared scenario.

    All settings are declared up front and executed as one fleet; the
    batch executor groups the compatible SmartDPSS runs per objective
    mode and drives the heterodox baselines through the scalar
    adapter.
    """
    scenario = build_scenario(seed=seed, days=days)
    labels: list[tuple[str, str]] = []
    specs: list[RunSpec] = []

    def add(study: str, label: str, spec: RunSpec) -> None:
        labels.append((study, label))
        specs.append(spec)

    # Abl-1: objective mode.
    for mode in (ObjectiveMode.DERIVED, ObjectiveMode.PAPER):
        config = paper_controller_config(objective_mode=mode)
        add("objective", mode.value, _spec(scenario, SmartDPSS(config)))

    # Abl-2: cycle budget Nmax.
    for budget in (None, 310, 106, 31):
        system = paper_system_config(days=days, cycle_budget=budget)
        add("cycle_budget",
            "unbounded" if budget is None else str(budget),
            _spec(scenario, SmartDPSS(paper_controller_config()),
                  system=system))

    # Abl-3: battery trade margin.
    for margin in (0.0, 3.0, 10.0):
        config = paper_controller_config().replace(
            battery_price_margin=margin)
        add("battery_margin", f"{margin:g} $/MWh",
            _spec(scenario, SmartDPSS(config)))

    # Abl-4: P4 deferrable-arrivals planning.
    for plan_arrivals in (False, True):
        config = paper_controller_config().replace(
            plan_deferrable_arrivals=plan_arrivals)
        add("p4_arrivals", "plan" if plan_arrivals else "defer",
            _spec(scenario, SmartDPSS(config)))

    # Abl-5: extra baselines — generic price-awareness (myopic) and
    # forecast-oracle MPC variants (what a perfect short-term
    # forecast would buy; paper Section VII's comparison axis).
    add("baseline", "myopic-threshold",
        _spec(scenario, MyopicPriceThreshold()))
    add("baseline", "lookahead-oracle",
        _spec(scenario, LookaheadController(scenario.traces)))
    add("baseline", "paper-P2-offline",
        _spec(scenario, PaperP2Offline(scenario.traces)))

    results = simulate_many(specs)
    rows = tuple(
        AblationRow(
            study=study, label=label,
            time_avg_cost=result.time_average_cost,
            avg_delay_slots=result.average_delay_slots,
            availability=result.availability,
            battery_ops=result.battery_operations)
        for (study, label), result in zip(labels, results))
    return AblationResult(rows=rows)


def render(result: AblationResult) -> str:
    """Printed form of every ablation study."""
    parts = []
    for study in ("objective", "cycle_budget", "battery_margin",
                  "p4_arrivals", "baseline"):
        study_rows = result.study(study)
        table_rows = [[r.label, r.time_avg_cost, r.avg_delay_slots,
                       r.availability, r.battery_ops]
                      for r in study_rows]
        parts.append(format_table(
            ["setting", "cost/slot", "avg delay", "availability",
             "battery ops"],
            table_rows, title=f"Ablation — {study}"))
    return "\n\n".join(parts)
