"""Optimization substrate.

Import the submodules directly; this package imports nothing, so
loading a NumPy-only solver does not load scipy.

* :mod:`repro.solvers.linear_program` — a small named-variable LP model
  builder (objective, bounds, inequality/equality rows) that compiles
  to the arrays solvers consume;
* :mod:`repro.solvers.batch_lp` — the one LP entry point
  (:class:`~repro.solvers.batch_lp.CompiledLp`: scipy ``linprog`` /
  HiGHS, loaded on the first solve), used by the offline-optimal and
  lookahead baselines;
* :mod:`repro.solvers.piecewise` — exact minimization utilities for the
  piecewise-linear subproblems P4/P5 (the real-time stage is only
  piecewise linear because of the battery-operation indicator
  ``n(τ)·Cb``; vertex enumeration solves it exactly).
"""
