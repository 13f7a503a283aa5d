"""Ablation studies for this reproduction's design decisions.

* **Abl-1, objective mode** — the P5 objective exactly as printed in
  the paper versus the first-principles derivation
  (:mod:`repro.core.modes`).
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
from repro.config.control import ObjectiveMode
from repro.experiments.common import paper_spec, run_fleet
from repro.fleet.spec import ScenarioSpec
from repro.rng import DEFAULT_SEED


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


def run_ablations(seed: int = DEFAULT_SEED, days: int = 31,
                  ) -> AblationResult:
    """Run every ablation study on the shared scenario.

    All settings are declared up front and executed as one fleet; the
    runner batches the SmartDPSS settings per objective mode and runs
    each baseline (the two oracles over the materialized horizon) as
    its own batch.
    """
    labels: list[tuple[str, str]] = []
    specs: list[ScenarioSpec] = []

    def add(study: str, label: str, controller: dict | None = None,
            **system: object) -> None:
        labels.append((study, label))
        specs.append(paper_spec(seed, days, controller, **system))

    # Abl-1: objective mode.
    for mode in (ObjectiveMode.DERIVED, ObjectiveMode.PAPER):
        add("objective", mode.value,
            {"kind": "smartdpss", "objective_mode": mode.value})

    # Abl-2: cycle budget Nmax.
    for budget in (None, 310, 106, 31):
        add("cycle_budget",
            "unbounded" if budget is None else str(budget),
            cycle_budget=budget)

    # Abl-3: battery trade margin.
    for margin in (0.0, 3.0, 10.0):
        add("battery_margin", f"{margin:g} $/MWh",
            {"kind": "smartdpss", "battery_price_margin": margin})

    # Abl-4: P4 deferrable-arrivals planning.
    for plan_arrivals in (False, True):
        add("p4_arrivals", "plan" if plan_arrivals else "defer",
            {"kind": "smartdpss",
             "plan_deferrable_arrivals": plan_arrivals})

    # Abl-5: extra baselines — generic price-awareness (myopic) and
    # forecast-oracle MPC variants (what a perfect short-term
    # forecast would buy; paper Section VII's comparison axis).
    add("baseline", "myopic-threshold", {"kind": "myopic"})
    add("baseline", "lookahead-oracle", {"kind": "lookahead"})
    add("baseline", "paper-P2-offline", {"kind": "p2_offline"})

    rows = tuple(
        AblationRow(
            study=study, label=label,
            time_avg_cost=m["time_avg_cost"],
            avg_delay_slots=m["avg_delay_slots"],
            availability=m["availability"],
            battery_ops=m["battery_ops"])
        for (study, label), m in zip(labels, run_fleet(specs)))
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
