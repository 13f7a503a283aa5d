"""Smart-grid substrate: the two-timescale markets.

The paper's grid side has two markets, each modeled here:

* :class:`~repro.grid.markets.LongTermMarket` — the long-term-ahead
  market clearing once per coarse slot at price ``plt(t) ≤ Pmax``,
  delivering the purchased block evenly over the coarse slot's fine
  slots;
* :class:`~repro.grid.markets.RealTimeMarket` — the real-time market
  clearing every fine slot at price ``prt(τ) ≤ Pmax``.

The physical feed's per-slot draw cap ``Pgrid`` (constraint 5) across
both markets is not a market rule: the simulation engines clamp it
inline (see :mod:`repro.grid.markets`).
"""

from repro.grid.markets import LongTermMarket, MarketLedger, RealTimeMarket

__all__ = ["LongTermMarket", "RealTimeMarket", "MarketLedger"]
