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

Two routes produce the figure:

* :func:`run_fig9` — the in-memory route: one shared noisy
  :class:`~repro.traces.base.TraceSet` via
  :func:`~repro.traces.noise.uniform_observation_noise`, all runs
  through the batched executors.
* :func:`run_fig9_fleet` — the fleet route: declarative
  :class:`~repro.fleet.spec.ScenarioSpec` rows through
  :class:`~repro.fleet.runner.FleetRunner` with
  ``robustness={"kind": "uniform", ...}``, so the noisy twin streams
  its observations chunk-by-chunk.  Both reproduce the paper's small
  difference band; the fleet route is pinned by the golden table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.comparison import cost_reduction
from repro.analysis.tables import format_table
from repro.config.presets import paper_controller_config
from repro.experiments.common import (
    PAPER_V_SWEEP,
    build_scenario,
    spec_impatient,
    spec_smartdpss,
)
from repro.rng import DEFAULT_SEED, RngFactory
from repro.sim.batch import simulate_many
from repro.traces.noise import uniform_observation_noise


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
             days: int = 31) -> Fig9Result:
    """Run the noise-robustness sweep as one batched fleet."""
    scenario = build_scenario(seed=seed, days=days)
    noise_rng = RngFactory(seed).stream("fig9-observation-noise")
    observed = uniform_observation_noise(
        scenario.traces, rel_error, noise_rng,
        price_cap=scenario.system.p_max)

    specs = [spec_impatient(scenario)]
    for v in v_values:
        config = paper_controller_config(v=v)
        specs.append(spec_smartdpss(scenario, config))
        specs.append(spec_smartdpss(scenario, config, observed=observed))
    results = simulate_many(specs)
    impatient = results[0]

    rows = []
    for index, v in enumerate(v_values):
        clean = results[1 + 2 * index]
        noisy = results[2 + 2 * index]
        rows.append(Fig9Row(
            v=v,
            clean_cost=clean.time_average_cost,
            noisy_cost=noisy.time_average_cost,
            clean_reduction=cost_reduction(clean, impatient),
            noisy_reduction=cost_reduction(noisy, impatient),
        ))
    return Fig9Result(rows=tuple(rows), rel_error=rel_error)


def run_fig9_fleet(seed: int = DEFAULT_SEED,
                   rel_error: float = 0.5,
                   v_values: tuple[float, ...] = PAPER_V_SWEEP,
                   days: int = 31,
                   fine_slots_per_coarse: int = 24,
                   **runner_kwargs) -> Fig9Result:
    """Run the noise-robustness sweep through the fleet path.

    One Impatient baseline plus one SmartDPSS scenario per ``V``, all
    on the same trace seed, executed by
    :class:`~repro.fleet.runner.FleetRunner` with the paired
    clean-vs-noisy robustness sweep armed — the noisy arm streams
    uniformly perturbed observations to every controller (baseline
    included), so reductions compare like against like.
    """
    from repro.fleet.runner import FleetRunner
    from repro.fleet.spec import ScenarioSpec

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
    runner = FleetRunner(
        specs,
        robustness={"kind": "uniform", "rel_error": float(rel_error)},
        **runner_kwargs)
    records = runner.run()

    imp = records[0]["metrics"]
    imp_clean = float(imp["time_avg_cost"])
    imp_noisy = float(imp["noisy_cost"])
    rows = []
    for record, v in zip(records[1:], v_values):
        metrics = record["metrics"]
        clean = float(metrics["time_avg_cost"])
        noisy = float(metrics["noisy_cost"])
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
