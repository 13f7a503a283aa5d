"""Fig. 6(a,b) — time-average cost and delay versus ``V``.

The paper's headline experiment: sweep the Lyapunov parameter
``V ∈ [0.05, 5]`` at ``T = 24, ε = 0.5, Bmax = 15 min`` and plot the
time-average operation cost (a) and average service delay (b) of
SmartDPSS against the offline optimum and the Impatient baseline.

Expected shape (paper Section VI-B.1): cost decreases toward the
optimum as ``V`` grows — the ``O(1/V)`` half of the trade-off — while
delay grows roughly linearly — the ``O(V)`` half.  Impatient has the
lowest delay and the highest cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.experiments.common import PAPER_V_SWEEP, paper_spec, run_fleet
from repro.rng import DEFAULT_SEED


@dataclass(frozen=True)
class Fig6VRow:
    """One sweep point of Fig. 6(a,b)."""

    v: float
    time_avg_cost: float
    avg_delay_slots: float
    worst_delay_slots: int
    peak_backlog: float
    availability: float


@dataclass(frozen=True)
class Fig6VResult:
    """The full Fig. 6(a,b) dataset."""

    rows: tuple[Fig6VRow, ...]
    impatient_cost: float
    impatient_delay: float
    offline_cost: float
    offline_delay: float

    @property
    def cost_monotone_nonincreasing(self) -> bool:
        """Whether cost decreases (weakly, with 1% slack) along ``V``."""
        costs = [r.time_avg_cost for r in self.rows]
        return all(costs[i + 1] <= costs[i] * 1.01
                   for i in range(len(costs) - 1))

    @property
    def delay_monotone_nondecreasing(self) -> bool:
        """Whether delay increases (weakly, with slack) along ``V``."""
        delays = [r.avg_delay_slots for r in self.rows]
        return all(delays[i + 1] >= delays[i] * 0.95
                   for i in range(len(delays) - 1))


def run_fig6_v(seed: int = DEFAULT_SEED,
               v_values: tuple[float, ...] = PAPER_V_SWEEP,
               days: int = 31) -> Fig6VResult:
    """Run the V sweep plus both baselines (one fleet)."""
    specs = [paper_spec(seed, days, {"kind": "smartdpss", "v": v})
             for v in v_values]
    specs.append(paper_spec(seed, days, {"kind": "impatient"}))
    specs.append(paper_spec(seed, days, {"kind": "offline"}))
    metrics = run_fleet(specs)
    rows = [Fig6VRow(
                v=v,
                time_avg_cost=m["time_avg_cost"],
                avg_delay_slots=m["avg_delay_slots"],
                worst_delay_slots=m["worst_delay_slots"],
                peak_backlog=m["peak_backlog"],
                availability=m["availability"],
            ) for v, m in zip(v_values, metrics)]
    impatient, offline = metrics[-2], metrics[-1]
    return Fig6VResult(
        rows=tuple(rows),
        impatient_cost=impatient["time_avg_cost"],
        impatient_delay=impatient["avg_delay_slots"],
        offline_cost=offline["time_avg_cost"],
        offline_delay=offline["avg_delay_slots"],
    )


def render(result: Fig6VResult) -> str:
    """Printed form of Fig. 6(a,b)."""
    rows = [[r.v, r.time_avg_cost, r.avg_delay_slots,
             r.worst_delay_slots, r.peak_backlog, r.availability]
            for r in result.rows]
    table = format_table(
        ["V", "cost/slot", "avg delay", "worst delay", "peak Q",
         "availability"],
        rows, title="Fig 6(a,b) — cost & delay vs V (SmartDPSS)")
    refs = (f"baselines: Impatient cost={result.impatient_cost:.3f} "
            f"delay={result.impatient_delay:.3f} | Offline "
            f"cost={result.offline_cost:.3f} "
            f"delay={result.offline_delay:.3f}")
    shape = (f"shape check: cost nonincreasing in V = "
             f"{result.cost_monotone_nonincreasing}, delay "
             f"nondecreasing in V = "
             f"{result.delay_monotone_nondecreasing}")
    return "\n".join([table, refs, shape])
