"""Plain-text tables and series for the experiments CLI.

The experiments regenerate the paper's figures as printed series (this
repo ships no plotting dependency); these helpers keep that output
aligned and machine-greppable.
"""

from __future__ import annotations

from typing import Sequence
from repro.exceptions import ConfigurationError


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str | None = None,
                 precision: int = 3) -> str:
    """Render an aligned monospace table.

    Floats are fixed to ``precision`` decimals; everything else is
    ``str()``-ed.  Column widths adapt to content.
    """
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.{precision}f}"
        return str(cell)

    rendered = [[render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row has {len(row)} cells, expected {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in rendered)
    return "\n".join(parts)


def format_series(name: str, xs: Sequence[object],
                  ys: Sequence[float], precision: int = 3) -> str:
    """Render one figure series as ``name: x=y`` pairs on one line."""
    if len(xs) != len(ys):
        raise ConfigurationError(
            f"series {name!r}: {len(xs)} x-values vs {len(ys)} y-values")
    pairs = " ".join(f"{x}={y:.{precision}f}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"
