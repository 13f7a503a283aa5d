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
* :mod:`repro.solvers.simplex` — a from-scratch two-phase dense simplex
  with Bland's rule; small and slow, it exists to cross-check HiGHS on
  random instances (a solver bug would silently corrupt every
  experiment, so the library verifies its solver);
* :mod:`repro.solvers.piecewise` — exact minimization utilities for the
  piecewise-linear subproblems P4/P5 (the real-time stage is only
  piecewise linear because of the battery-operation indicator
  ``n(τ)·Cb``; vertex enumeration solves it exactly).
"""
