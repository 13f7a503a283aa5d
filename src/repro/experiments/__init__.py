"""Experiment harness: one module per paper figure, plus ablations.

Every module exposes a ``run_*`` function returning a plain result
object and a ``render(result) -> str`` producing the printed series the
CLI emits (this repo's stand-in for the paper's plots).
The :mod:`repro.experiments.registry` maps experiment ids
(``fig5`` ... ``fig10``, ``ablations``) to their runners.
"""

from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = ["EXPERIMENTS", "run_experiment"]
