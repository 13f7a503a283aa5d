"""Experiment registry: one entry per paper figure plus ablations.

Maps stable experiment ids to ``(runner, renderer)`` pairs so the
CLI, the examples and ad-hoc scripts all regenerate figures through
one call:

    >>> from repro.experiments import run_experiment
    >>> print(run_experiment("fig6_v"))            # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments import (
    ablations,
    fig5_traces,
    fig6_t_sweep,
    fig6_v_sweep,
    fig7_factors,
    fig8_penetration,
    fig9_robustness,
    fig10_scaling,
)


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: how to run it and how to print it."""

    experiment_id: str
    description: str
    run: Callable[..., object]
    render: Callable[[object], str]


EXPERIMENTS: dict[str, Experiment] = {
    "fig5": Experiment(
        "fig5", "one-month traces (demand, solar, prices)",
        fig5_traces.run_fig5, fig5_traces.render),
    "fig6_v": Experiment(
        "fig6_v", "cost & delay vs V (Fig 6a,b)",
        fig6_v_sweep.run_fig6_v, fig6_v_sweep.render),
    "fig6_t": Experiment(
        "fig6_t", "cost & delay vs T (Fig 6c,d)",
        fig6_t_sweep.run_fig6_t, fig6_t_sweep.render),
    "fig7": Experiment(
        "fig7", "epsilon / battery / market factors (Fig 7)",
        fig7_factors.run_fig7, fig7_factors.render),
    "fig8": Experiment(
        "fig8", "renewable penetration & demand variation (Fig 8)",
        fig8_penetration.run_fig8, fig8_penetration.render),
    "fig9": Experiment(
        "fig9", "robustness to estimation errors (Fig 9)",
        fig9_robustness.run_fig9, fig9_robustness.render),
    "fig10": Experiment(
        "fig10", "scalability under expansion (Fig 10)",
        fig10_scaling.run_fig10, fig10_scaling.render),
    "ablations": Experiment(
        "ablations", "design-decision ablations (Abl-1..5)",
        ablations.run_ablations, ablations.render),
}


def run_experiment(experiment_id: str, **kwargs: object) -> str:
    """Run a registered experiment and return its printed form."""
    if experiment_id not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}")
    experiment = EXPERIMENTS[experiment_id]
    result = experiment.run(**kwargs)
    return experiment.render(result)
