"""Grid interconnect: the physical draw cap (paper constraint 5).

Whatever the two markets sell, the feeder between the substation and
the datacenter carries at most ``Pgrid`` MWh per fine slot:

    0 ≤ gbef(t)/T + grt(τ) ≤ Pgrid.                        (eq. 5)

:class:`GridInterconnect` states the cap and the largest legal advance
block ``T · Pgrid``, which the scalar engine clips each plan to.  The
per-slot real-time headroom ``Pgrid − gbef/T`` is clamped inline by
both engines (the batch engine in array form), so no policy can
overdraw the feeder.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError


class GridInterconnect:
    """Enforces the per-fine-slot grid draw cap ``Pgrid``."""

    def __init__(self, p_grid: float):
        if p_grid < 0:
            raise ConfigurationError(f"Pgrid must be >= 0, got {p_grid}")
        self.p_grid = p_grid

    def max_block_purchase(self, fine_slots_per_coarse: int) -> float:
        """Largest legal advance block ``gbef ≤ T · Pgrid``."""
        if fine_slots_per_coarse < 1:
            raise ConfigurationError(
                f"T must be >= 1, got {fine_slots_per_coarse}")
        return self.p_grid * fine_slots_per_coarse
