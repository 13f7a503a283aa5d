"""Piecewise-linear minimization utilities and the selection oracle."""

import numpy as np
import pytest

from oracles.selection import minimize_over_candidates
from repro.solvers.piecewise import box_edge_candidates
from repro.exceptions import ConfigurationError


class TestMinimizeOverCandidates:
    def test_finds_minimum(self):
        value, point = minimize_over_candidates(
            lambda x: (x - 2.0) ** 2, [(0.0,), (1.0,), (2.0,), (3.0,)])
        assert point == (2.0,)
        assert value == 0.0

    def test_tie_prefers_earlier(self):
        value, point = minimize_over_candidates(
            lambda x: 0.0, [(5.0,), (1.0,)])
        assert point == (5.0,)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            minimize_over_candidates(lambda x: x, [])

    def test_multi_argument(self):
        value, point = minimize_over_candidates(
            lambda a, b: a + b, [(1.0, 2.0), (0.0, 0.5)])
        assert point == (0.0, 0.5)


class TestBoxEdgeCandidates:
    def test_contains_corners(self):
        candidates = box_edge_candidates((0.0, 2.0), (0.0, 1.0),
                                         slope=1.0, intercepts=[])
        for corner in [(0.0, 0.0), (0.0, 1.0), (2.0, 0.0), (2.0, 1.0)]:
            assert corner in candidates

    def test_line_edge_intersections(self):
        # Line grt = 1·γ + 0.5 crosses γ=0 at grt=0.5 and γ=1 at 1.5.
        candidates = box_edge_candidates((0.0, 2.0), (0.0, 1.0),
                                         slope=1.0, intercepts=[0.5])
        assert (0.5, 0.0) in candidates
        assert (1.5, 1.0) in candidates

    def test_vertical_edge_intersections(self):
        # Same line crosses grt=1.0 at γ=0.5.
        candidates = box_edge_candidates((0.0, 1.0), (0.0, 1.0),
                                         slope=1.0, intercepts=[0.5])
        assert any(abs(g - 1.0) < 1e-12 and abs(c - 0.5) < 1e-12
                   for g, c in candidates)

    def test_out_of_box_lines_ignored(self):
        candidates = box_edge_candidates((0.0, 1.0), (0.0, 1.0),
                                         slope=1.0, intercepts=[10.0])
        assert len(candidates) == 4  # only corners

    def test_zero_slope(self):
        candidates = box_edge_candidates((0.0, 2.0), (0.0, 1.0),
                                         slope=0.0, intercepts=[1.0])
        # Horizontal-edge intersections at grt=1.0 for both γ edges.
        assert (1.0, 0.0) in candidates
        assert (1.0, 1.0) in candidates

    def test_empty_box_rejected(self):
        with pytest.raises(ConfigurationError):
            box_edge_candidates((1.0, 0.0), (0.0, 1.0), 1.0, [])

    def test_exact_on_2d_piecewise_linear(self):
        # Objective linear on each side of the line grt = 2γ − 0.3,
        # with a kink across it: minimum must be at a returned vertex.
        slope, intercept = 2.0, -0.3

        def f(grt, gamma):
            net = grt - slope * gamma - intercept
            return 0.3 * grt - 0.5 * gamma + 2.0 * max(net, 0.0)

        candidates = box_edge_candidates((0.0, 1.5), (0.0, 1.0),
                                         slope, [intercept])
        best = min(f(g, c) for g, c in candidates)
        grid = [(g, c) for g in np.linspace(0, 1.5, 301)
                for c in np.linspace(0, 1, 201)]
        dense_best = min(f(g, c) for g, c in grid)
        assert best <= dense_best + 1e-9
