"""Scalar forms of the selection P4 and P5 share.

:func:`repro.solvers.piecewise.scan_candidates` selects in every lane
at once; :func:`minimize_over_candidates` is the plain loop it must
match, one candidate at a time.  :func:`window_cost` prices one P4
rate through the library's own kernel
(:func:`repro.core.p4._window_values`), so a test can probe rates the
candidate sweep never visits.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.core.p4 import P4State, StackedWindows, _window_values
from repro.exceptions import ConfigurationError


def minimize_over_candidates(
        objective: Callable[..., float],
        candidates: Iterable[tuple],
) -> tuple[float, tuple]:
    """Evaluate ``objective`` at every candidate; return (best, argbest).

    Ties break toward the earlier candidate, which callers exploit by
    listing "do nothing" first so zero-cost ties stay inactive.
    """
    best_value = None
    best_point = None
    for point in candidates:
        value = objective(*point)
        if best_value is None or value < best_value - 1e-12:
            best_value = value
            best_point = point
    if best_point is None:
        raise ConfigurationError("no candidates supplied")
    return best_value, best_point


def window_cost(state: P4State, rate: float) -> float:
    """P4's derived window cost of a single rate."""
    return float(_window_values(StackedWindows.from_state(state),
                                np.array([[float(rate)]]))[0, 0])
