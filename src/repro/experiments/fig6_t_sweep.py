"""Fig. 6(c,d) — time-average cost and delay versus ``T``.

The paper varies the coarse-slot length ``T`` from 3 hours to 6 days at
``V = 1, ε = 0.5, Bmax = 15 min``.  Expected shape (Section VI-B.2):
``T`` has relatively little impact on cost (the paper reports
fluctuation within ``[−3.65%, +6.23%]``), while average delay
*decreases* as ``T`` grows (their Fig. 6d; with more frequent planning
the frozen Lyapunov weights refresh more often, holding demand back
longer at each refresh).

The sweep runs on a 30-day horizon (720 h) because 744 h does not
divide evenly by ``T = 48``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.experiments.common import (
    PAPER_T_SWEEP,
    PAPER_T_SWEEP_DAYS,
    paper_spec,
    run_fleet,
)
from repro.rng import DEFAULT_SEED


@dataclass(frozen=True)
class Fig6TRow:
    """One sweep point of Fig. 6(c,d)."""

    t_slots: int
    time_avg_cost: float
    avg_delay_slots: float
    worst_delay_slots: int
    peak_backlog: float


@dataclass(frozen=True)
class Fig6TResult:
    """The full Fig. 6(c,d) dataset."""

    rows: tuple[Fig6TRow, ...]

    @property
    def cost_fluctuation(self) -> tuple[float, float]:
        """(min, max) relative deviation from the T=24 cost."""
        reference = next(r.time_avg_cost for r in self.rows
                         if r.t_slots == 24)
        deviations = [r.time_avg_cost / reference - 1.0
                      for r in self.rows]
        return min(deviations), max(deviations)


def run_fig6_t(seed: int = DEFAULT_SEED,
               t_values: tuple[int, ...] = PAPER_T_SWEEP,
               days: int = PAPER_T_SWEEP_DAYS) -> Fig6TResult:
    """Run the T sweep: one SmartDPSS scenario per ``T``, one fleet.

    Each ``T`` changes the two-timescale shape, so every scenario is
    its own batch group and shard (a batch of one).  ``days · 24`` must
    divide by every ``T``; otherwise the system build raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    specs = [paper_spec(seed, days, fine_slots_per_coarse=t_slots)
             for t_slots in t_values]
    rows = [Fig6TRow(
                t_slots=t_slots,
                time_avg_cost=m["time_avg_cost"],
                avg_delay_slots=m["avg_delay_slots"],
                worst_delay_slots=m["worst_delay_slots"],
                peak_backlog=m["peak_backlog"],
            ) for t_slots, m in zip(t_values, run_fleet(specs))]
    return Fig6TResult(rows=tuple(rows))


def render(result: Fig6TResult) -> str:
    """Printed form of Fig. 6(c,d)."""
    rows = [[r.t_slots, r.time_avg_cost, r.avg_delay_slots,
             r.worst_delay_slots, r.peak_backlog] for r in result.rows]
    table = format_table(
        ["T (h)", "cost/slot", "avg delay", "worst delay", "peak Q"],
        rows, title="Fig 6(c,d) — cost & delay vs T (SmartDPSS, V=1)")
    lo, hi = result.cost_fluctuation
    note = (f"cost fluctuation vs T=24 reference: "
            f"[{lo:+.2%}, {hi:+.2%}] (paper: [-3.65%, +6.23%])")
    return "\n".join([table, note])
