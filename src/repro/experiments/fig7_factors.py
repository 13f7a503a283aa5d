"""Fig. 7 — impact of ε, battery size and market structure.

Three factor studies at ``V = 1, T = 24``:

* **ε sweep** ``{0.25, 0.5, 1, 2}`` — larger ε weights delay control
  more heavily, so cost increases and delay shrinks;
* **battery size** ``{0, 15, 30}`` minutes of peak demand — cost
  decreases with storage (cheap/renewable energy gets time-shifted);
* **markets** — both markets ("TM") versus real-time-only ("RTM"):
  the long-term-ahead market's contract discount plus real-time
  flexibility beats real-time alone.

The paper's ordering of effect sizes (Section VI-B.3): storage benefit
> market-structure benefit > ε effect.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.experiments.common import (
    PAPER_BATTERY_SWEEP,
    PAPER_EPSILON_SWEEP,
    paper_spec,
    run_fleet,
)
from repro.rng import DEFAULT_SEED


@dataclass(frozen=True)
class FactorRow:
    """One factor setting's outcome."""

    label: str
    time_avg_cost: float
    avg_delay_slots: float


@dataclass(frozen=True)
class Fig7Result:
    """All three factor studies of Fig. 7."""

    epsilon_rows: tuple[FactorRow, ...]
    battery_rows: tuple[FactorRow, ...]
    market_rows: tuple[FactorRow, ...]

    @property
    def epsilon_cost_nondecreasing(self) -> bool:
        """Cost should grow (weakly) with ε."""
        costs = [r.time_avg_cost for r in self.epsilon_rows]
        return all(costs[i + 1] >= costs[i] * 0.99
                   for i in range(len(costs) - 1))

    @property
    def battery_cost_nonincreasing(self) -> bool:
        """Cost should shrink (weakly) with battery size."""
        costs = [r.time_avg_cost for r in self.battery_rows]
        return all(costs[i + 1] <= costs[i] * 1.01
                   for i in range(len(costs) - 1))

    @property
    def two_markets_cheaper(self) -> bool:
        """TM should beat RTM."""
        by_label = {r.label: r.time_avg_cost for r in self.market_rows}
        return by_label["TM"] < by_label["RTM"]


def run_fig7(seed: int = DEFAULT_SEED, days: int = 31,
             n_seeds: int = 5) -> Fig7Result:
    """Run the three factor studies, averaged over ``n_seeds`` traces.

    A 15-minute battery saves on the order of tenths of a percent of
    the bill, which is within single-trace noise, so the factor
    studies average a few independent trace realizations (the paper
    replays one fixed trace; our synthetic traces let us do better).
    """
    seeds = [seed + offset for offset in range(max(1, n_seeds))]

    # Every factor setting replicated across every seed is one flat
    # fleet.
    factors: list[tuple[str, str]] = []
    specs = []

    for epsilon in PAPER_EPSILON_SWEEP:
        factors.append(("epsilon", f"eps={epsilon:g}"))
        specs.extend(paper_spec(s, days, {"kind": "smartdpss",
                                          "epsilon": epsilon})
                     for s in seeds)

    for minutes in PAPER_BATTERY_SWEEP:
        factors.append(("battery", f"Bmax={minutes:g}min"))
        specs.extend(paper_spec(s, days, battery_minutes=minutes)
                     for s in seeds)

    for label, use_lt in (("TM", True), ("RTM", False)):
        factors.append(("market", label))
        specs.extend(paper_spec(s, days, {"kind": "smartdpss",
                                          "use_long_term_market": use_lt})
                     for s in seeds)

    metrics = run_fleet(specs)

    def averaged(index: int) -> FactorRow:
        chunk = metrics[index * len(seeds):(index + 1) * len(seeds)]
        return FactorRow(
            label=factors[index][1],
            time_avg_cost=sum(m["time_avg_cost"] for m in chunk)
            / len(chunk),
            avg_delay_slots=sum(m["avg_delay_slots"] for m in chunk)
            / len(chunk))

    rows = [averaged(index) for index in range(len(factors))]
    by_study = {
        study: tuple(row for (kind, _), row in zip(factors, rows)
                     if kind == study)
        for study in ("epsilon", "battery", "market")
    }
    return Fig7Result(epsilon_rows=by_study["epsilon"],
                      battery_rows=by_study["battery"],
                      market_rows=by_study["market"])


def render(result: Fig7Result) -> str:
    """Printed form of Fig. 7."""
    parts = []
    for title, rows in (("Fig 7 — epsilon sweep", result.epsilon_rows),
                        ("Fig 7 — battery size", result.battery_rows),
                        ("Fig 7 — market structure", result.market_rows)):
        table_rows = [[r.label, r.time_avg_cost, r.avg_delay_slots]
                      for r in rows]
        parts.append(format_table(["setting", "cost/slot", "avg delay"],
                                  table_rows, title=title))
    parts.append(
        "shape checks: eps cost nondecreasing = "
        f"{result.epsilon_cost_nondecreasing}, battery cost "
        f"nonincreasing = {result.battery_cost_nonincreasing}, "
        f"two markets cheaper = {result.two_markets_cheaper}")
    return "\n\n".join(parts)
