"""Exact minimization of piecewise-linear objectives by vertex enumeration.

The real-time subproblem P5 is *not* a plain LP: the battery operation
indicator ``n(τ)·Cb`` introduces a jump, and charge/discharge/waste are
hinge functions ``[·]⁺`` of the decisions.  But it has a special
structure this module exploits:

* the decision region is a box (``grt`` and ``γ`` each live in an
  interval);
* within the box, every hinge breakpoint is a *line of constant net
  surplus* — all such lines are parallel (slope ``∂grt/∂γ = Q``);
* the objective is linear on each cell of the induced subdivision.

A function that is linear on every cell of a subdivision attains its
minimum at a vertex of the subdivision; the jump term only adds the
candidate "exactly zero battery activity", which lies *on* a breakpoint
line.  Enumerating all (box corner) × (breakpoint line ∩ box edge)
points and evaluating the exact objective is therefore optimal — no
iterative solver, no tolerance tuning.

:func:`scan_candidates` is the selection rule P4 and P5 share, in
array form: the earliest candidate wins unless a later one beats it by
more than 1e-12.  It is the one selection scan of the batch P5 solver
and of P4 (scalar and batch alike).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from repro.exceptions import ConfigurationError


def scan_candidates(values: np.ndarray, default: int,
                    shifted: np.ndarray, threshold: np.ndarray,
                    rows: np.ndarray, wins: np.ndarray) -> np.ndarray:
    """The earliest-candidate-keeps-a-tie rule in every lane at once.

    ``values`` is ``(R, L)``: candidate row ``r``'s value in lane
    ``l``.  Each lane starts at row ``default`` with an infinite
    incumbent, and row ``r`` wins when its value is below
    ``fl(best − 1e-12)``, so an earlier row keeps a tie.  Only that
    threshold matters, so the scan carries it instead of ``best``: it
    starts at ``fl(inf − 1e-12) = inf`` and becomes the winner's
    ``fl(value − 1e-12)``.  A lane with no finite value keeps
    ``default``.

    The buffers are the caller's: ``shifted`` is ``(R, L)`` float,
    ``threshold`` ``(L,)`` float, ``rows`` ``(L,)`` integer and
    ``wins`` ``(L,)`` bool.  Returns ``rows``.
    """
    np.subtract(values, 1e-12, out=shifted)
    threshold.fill(np.inf)
    rows.fill(default)
    for row, lane_values in enumerate(values):
        np.less(lane_values, threshold, out=wins)
        np.copyto(threshold, shifted[row], where=wins)
        np.copyto(rows, row, where=wins)
    return rows


def box_edge_candidates(grt_bounds: tuple[float, float],
                        gamma_bounds: tuple[float, float],
                        slope: float,
                        intercepts: Sequence[float],
                        ) -> list[tuple[float, float]]:
    """Vertices for P5's parallel-line subdivision of a box.

    The box is ``grt ∈ [g0, g1] × γ ∈ [c0, c1]``; each intercept ``q``
    defines the line ``grt = slope·γ + q``.  Returns the four box
    corners plus every intersection of a line with a box edge.

    With ``slope = Q(t)`` these lines are exactly the loci where the
    net surplus (and hence some hinge term of P5) changes regime, so
    the returned set contains an optimizer of any function linear on
    the subdivision cells.
    """
    g0, g1 = grt_bounds
    c0, c1 = gamma_bounds
    if g0 > g1 or c0 > c1:
        raise ConfigurationError(
            f"empty box [{g0},{g1}] x [{c0},{c1}]")
    candidates: list[tuple[float, float]] = [
        (g0, c0), (g0, c1), (g1, c0), (g1, c1),
    ]
    for q in intercepts:
        # Intersections with the horizontal edges γ = c0, γ = c1.
        for gamma in (c0, c1):
            grt = slope * gamma + q
            if g0 - 1e-12 <= grt <= g1 + 1e-12:
                candidates.append((min(max(grt, g0), g1), gamma))
        # Intersections with the vertical edges grt = g0, grt = g1.
        if abs(slope) > 1e-15:
            for grt in (g0, g1):
                gamma = (grt - q) / slope
                if c0 - 1e-12 <= gamma <= c1 + 1e-12:
                    candidates.append((grt, min(max(gamma, c0), c1)))
    return candidates
