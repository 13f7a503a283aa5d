"""Fig. 9 — robustness to estimation errors.

The paper injects "uniformly distributed ±50% errors" into the demand,
solar and price data the controller sees (physics and billing use the
truth), re-runs SmartDPSS across ``V``, and plots the difference in
cost reduction relative to the error-free run.  Their reported band is
``[−1.6%, +2.1%]`` — SmartDPSS barely cares, which is Theorem 3's
robustness claim in practice.

Here the cost-reduction is measured against the Impatient baseline (the
paper's reference online policy), and the difference is
``reduction_with_noise − reduction_without``.

The figure is one fleet: an Impatient baseline plus one SmartDPSS
scenario per ``V``, all on one ``stream`` trace seed, run by
:class:`~repro.fleet.runner.FleetRunner` with the paired clean-vs-noisy
robustness sweep armed (``robustness={"kind": "uniform", ...}``).  The
noisy twin of every scenario, the baseline included, observes traces
perturbed chunk by chunk through the fleet observation layer (one noise
substream per series), while physics and billing stay on the truth, so
reductions compare like against like.  The golden
``fleet_fig9_robustness`` fixture pins this route.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.experiments.common import PAPER_V_SWEEP, run_fleet
from repro.fleet.spec import ScenarioSpec
from repro.rng import DEFAULT_SEED


@dataclass(frozen=True)
class Fig9Row:
    """One V point: cost reduction with and without observation noise."""

    v: float
    clean_cost: float
    noisy_cost: float
    clean_reduction: float
    noisy_reduction: float

    @property
    def reduction_difference(self) -> float:
        """The paper's y-axis: change in cost-reduction percentage."""
        return self.noisy_reduction - self.clean_reduction


@dataclass(frozen=True)
class Fig9Result:
    """The full Fig. 9 dataset."""

    rows: tuple[Fig9Row, ...]
    rel_error: float

    @property
    def difference_band(self) -> tuple[float, float]:
        """(min, max) of the reduction differences across V."""
        diffs = [r.reduction_difference for r in self.rows]
        return min(diffs), max(diffs)


def run_fig9(seed: int = DEFAULT_SEED,
             rel_error: float = 0.5,
             v_values: tuple[float, ...] = PAPER_V_SWEEP,
             days: int = 31,
             fine_slots_per_coarse: int = 24) -> Fig9Result:
    """Run the noise-robustness sweep as one fleet (see the module
    docstring)."""
    system = {"preset": "paper", "days": days,
              "fine_slots_per_coarse": fine_slots_per_coarse}
    specs = [ScenarioSpec(name="fig9-impatient", value=0.0, seed=seed,
                          system=system,
                          controller={"kind": "impatient"},
                          trace={"kind": "stream"})]
    for v in v_values:
        specs.append(ScenarioSpec(
            name="fig9-smartdpss", value=float(v), seed=seed,
            system=system,
            controller={"kind": "smartdpss", "v": float(v)},
            trace={"kind": "stream"}))
    metrics = run_fleet(specs, robustness={
        "kind": "uniform", "rel_error": float(rel_error)})

    imp = metrics[0]
    imp_clean = float(imp["time_avg_cost"])
    imp_noisy = float(imp["noisy_cost"])
    rows = []
    for m, v in zip(metrics[1:], v_values):
        clean = float(m["time_avg_cost"])
        noisy = float(m["noisy_cost"])
        rows.append(Fig9Row(
            v=float(v),
            clean_cost=clean,
            noisy_cost=noisy,
            clean_reduction=(imp_clean - clean) / imp_clean,
            noisy_reduction=(imp_noisy - noisy) / imp_noisy,
        ))
    return Fig9Result(rows=tuple(rows), rel_error=float(rel_error))


def render(result: Fig9Result) -> str:
    """Printed form of Fig. 9."""
    rows = [[r.v, r.clean_cost, r.noisy_cost,
             f"{r.clean_reduction:+.2%}", f"{r.noisy_reduction:+.2%}",
             f"{r.reduction_difference:+.2%}"] for r in result.rows]
    table = format_table(
        ["V", "clean cost", "noisy cost", "clean reduction",
         "noisy reduction", "difference"],
        rows,
        title=(f"Fig 9 — ±{result.rel_error:.0%} observation errors "
               "(cost reduction vs Impatient)"))
    lo, hi = result.difference_band
    note = (f"difference band across V: [{lo:+.2%}, {hi:+.2%}] "
            "(paper: [-1.6%, +2.1%])")
    return "\n".join([table, note])
