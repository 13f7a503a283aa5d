"""P4 — long-term-ahead planning (paper Algorithm 1, step 1).

At each coarse boundary ``t = kT`` the controller chooses the advance
block ``gbef(t)``, delivered at the flat rate ``x = gbef/T`` per fine
slot, subject to the feasibility floor

    gbef(t)/T + r(t) + b_avail(t) ≥ dds(t)

(the battery term being the energy actually dischargeable in a slot)
and the interconnect cap ``gbef/T ≤ Pgrid``.

Two variants, matching the P5 objective modes:

* **paper** — the printed P4 is linear in the single variable ``gbef``
  with coefficient ``V·plt − Q − Y``, so its solution is bang-bang:
  the feasibility floor when the coefficient is positive, the grid
  maximum when the queue pressure exceeds the weighted contract price.

* **derived** — certainty-equivalent planning against the observed
  window.  The paper's planner "observes the demand d(t) and renewable
  r(t) generated during time slot t"; the derived planner replays a
  candidate rate ``x`` against that hourly profile and prices the
  outcome the way the real-time stage will:

  - delay-sensitive deficits are topped up at that hour's observed
    real-time price;
  - the deferrable pool (current backlog + the window's observed
    arrivals) is served first from surplus slots (free) and then by
    real-time purchases at the *cheapest* observed hours, respecting
    the per-slot grid headroom — mirroring how P5 actually schedules
    deferred load into price dips;
  - leftover surplus charges the battery toward its Lyapunov target
    (credit ``−X̂·ηc``) and beyond that is wasted at the penalty rate;
  - the queue drift term for serving current backlog,
    ``(Q̂ + Ŷ)·min(pool, Q̂)``, is the same for every candidate rate,
    so it is left out: it could shift every window cost by one
    constant, not change which rate is cheapest.

  The window cost is piecewise linear in ``x``; exact minimization
  sweeps the complete kink set — the per-slot net-demand breakpoints
  (:func:`_base_grids`) plus the deferred-pool / waterfall /
  battery-tier crossings located on that grid
  (:func:`_deferred_breakpoints`) — evaluating every scenario's whole
  candidate set in one tensor pass.  Because the whole window is
  priced, the plan buys more on cheap contract days and less on
  expensive ones — the cross-day arbitrage the two-timescale market
  structure exists for — with no future statistics beyond the
  just-observed window.

Both modes solve on arrays: :meth:`StackedWindows.stack` takes ``(B,)``
fields and ``(B, W)`` profiles — the batch planner
(:meth:`repro.core.smartdpss_vec.VecSmartDPSS.prepare_plan_batch`)
feeds it observation arrays directly — and :func:`solve_windows`
returns ``(B,)`` rates.  :func:`solve_p4` is the one-row case, built
from a :class:`P4State` by :meth:`StackedWindows.from_state`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.config.control import ObjectiveMode


@dataclass(frozen=True)
class P4State:
    """Inputs to the long-term planning subproblem.

    Prices are in the controller's normalized units.  Profiles are the
    previous coarse window's per-slot observations (the paper's
    current-statistics approximation applied to a whole window).
    """

    v: float
    price_lt: float
    q_hat: float
    y_hat: float
    x_hat: float
    t_slots: int
    demand_ds: float
    renewable: float
    battery_level: float
    p_grid: float
    discharge_avail: float
    charge_headroom_total: float
    eta_c: float
    s_dt_max: float
    waste_penalty: float
    profile_demand_ds: tuple[float, ...] = ()
    profile_demand_dt: tuple[float, ...] = ()
    profile_renewable: tuple[float, ...] = ()
    profile_price_rt: tuple[float, ...] = field(default=())
    #: When True the plan also sizes for the window's expected
    #: deferrable arrivals.  Off by default: pre-buying for deferred
    #: load creates surplus whose timing rarely matches the backlog
    #: (P5 serves at price dips first), so the flexible load is best
    #: left to the V-gated real-time stage — see the Abl-4 benchmark.
    plan_deferrable_arrivals: bool = False

    @property
    def net_profile(self) -> tuple[float, ...]:
        """Per-slot delay-sensitive net demand ``dds − r`` (observed)."""
        if self.profile_demand_ds and self.profile_renewable:
            return tuple(d - r for d, r in zip(self.profile_demand_ds,
                                               self.profile_renewable))
        return (self.demand_ds - self.renewable,)


@dataclass(frozen=True)
class P4Solution:
    """Chosen advance purchase and its per-slot delivery rate."""

    gbef: float
    rate: float
    floor_rate: float


#: Cache of step vectors ``[0, 1, …, count−1]`` keyed by length (P4
#: solves run once per scenario per coarse boundary; the windows reuse
#: a handful of lengths).  Bounded: a long mixed-``T`` sweep evicts
#: the oldest entry past the cap instead of growing without bound
#: (see :func:`repro.caches.clear_caches`).
_STEP_CACHE: dict[int, np.ndarray] = {}

#: Maximum retained step vectors.
_STEP_CACHE_MAX = 64


def _steps(count: int) -> np.ndarray:
    steps = _STEP_CACHE.get(count)
    if steps is None:
        while len(_STEP_CACHE) >= _STEP_CACHE_MAX:
            _STEP_CACHE.pop(next(iter(_STEP_CACHE)))
        steps = _STEP_CACHE[count] = np.arange(float(count))
    return steps


def _sequential_sum(rows: np.ndarray) -> np.ndarray:
    """Row sums rounded exactly like Python's ``sum`` of each row.

    ``sum`` adds left to right starting from ``0``; ``np.sum`` uses
    pairwise summation, which rounds differently from eight elements
    on.  ``np.cumsum`` accumulates strictly in order, so a leading zero
    column reproduces ``sum`` bit for bit (empty rows give ``0.0``).
    """
    padded = np.zeros((rows.shape[0], rows.shape[1] + 1))
    padded[:, 1:] = rows
    return np.cumsum(padded, axis=1)[:, -1]


def _python_min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``min(a, b)`` with Python's tie and NaN choices."""
    return np.where(b < a, b, a)


#: The :class:`P4State` fields :meth:`StackedWindows.stack` takes as
#: ``(count,)`` arrays.
_SCALAR_FIELDS = ("v", "price_lt", "q_hat", "y_hat", "x_hat", "t_slots",
                  "demand_ds", "renewable", "p_grid", "discharge_avail",
                  "charge_headroom_total", "eta_c", "s_dt_max",
                  "waste_penalty")


class StackedWindows(NamedTuple):
    """P4 inputs for ``count`` scenarios sharing one window width.

    Every field is stacked over the scenario axis so one tensor pass
    solves all scenarios of a coarse boundary at once.  Every instance
    comes from :meth:`stack`: the batch planner feeds it observation
    arrays directly, and :func:`solve_p4` one row built from a
    :class:`P4State` (:meth:`from_state`) — so the scalar and batch
    engines share every operation bit for bit.
    """

    count: int
    n: int
    nets: np.ndarray            # (count, n)
    prices: np.ndarray          # (count, n)
    scale: np.ndarray           # (count,)
    t_slots: np.ndarray
    v: np.ndarray
    price_lt: np.ndarray
    p_grid: np.ndarray
    q_hat: np.ndarray
    y_hat: np.ndarray
    battery_value: np.ndarray   # −X̂·ηc (charge credit per MWh)
    headroom_total: np.ndarray  # charge_headroom_total
    waste_penalty: np.ndarray
    pools: np.ndarray
    floors: np.ndarray

    @classmethod
    def stack(cls, *, v, price_lt, q_hat, y_hat, x_hat, t_slots,
              demand_ds, renewable, p_grid, discharge_avail,
              charge_headroom_total, eta_c, s_dt_max, waste_penalty,
              plan_deferrable_arrivals, profile_demand_ds,
              profile_demand_dt, profile_renewable, profile_price_rt
              ) -> "StackedWindows":
        """Stack ``(count,)`` fields and ``(count, n)`` profiles.

        Arguments are named after the :class:`P4State` fields they
        stack; ``profile_price_rt`` is already normalized and
        ``profile_demand_dt`` may have any width (it only sizes the
        deferrable pool).  Each derived field is the array form of the
        scalar rule, with Python's rounding:

        * ``floors = min(max(0, dds − r − avail), Pgrid)`` — the
          feasibility floor;
        * ``pools = min(Q̂ + sum(profile_dt)·T/n, s_dt_max·T)`` with
          the arrivals term only where ``plan_deferrable_arrivals``.
        """
        count, n = profile_demand_ds.shape
        scale = t_slots / n
        arrivals = 0.0
        if np.any(plan_deferrable_arrivals):
            arrivals = np.where(plan_deferrable_arrivals,
                                _sequential_sum(profile_demand_dt) * scale,
                                0.0)
        floor = demand_ds - renewable - discharge_avail
        floor = np.where(floor > 0.0, floor, 0.0)
        return cls(
            count=count,
            n=n,
            nets=profile_demand_ds - profile_renewable,
            prices=profile_price_rt,
            scale=scale,
            t_slots=t_slots,
            v=v,
            price_lt=price_lt,
            p_grid=p_grid,
            q_hat=q_hat,
            y_hat=y_hat,
            battery_value=-x_hat * eta_c,
            headroom_total=charge_headroom_total,
            waste_penalty=waste_penalty,
            pools=_python_min(q_hat + arrivals, s_dt_max * t_slots),
            floors=_python_min(floor, p_grid),
        )

    @classmethod
    def from_state(cls, state: P4State) -> "StackedWindows":
        """One row for ``state``, with the short-profile fallbacks.

        Without both demand and renewable profiles the window is the
        single slot of the observed means; a price profile of another
        width falls back to the contract price in every slot.
        """
        if state.profile_demand_ds and state.profile_renewable:
            ds, r = state.profile_demand_ds, state.profile_renewable
        else:
            ds, r = (state.demand_ds,), (state.renewable,)
        n = len(ds)
        prices = (state.profile_price_rt
                  if len(state.profile_price_rt) == n
                  else (state.price_lt,) * n)
        return cls.stack(
            **{name: np.array([getattr(state, name)], dtype=float)
               for name in _SCALAR_FIELDS},
            plan_deferrable_arrivals=np.array(
                [state.plan_deferrable_arrivals]),
            profile_demand_ds=np.array([ds], dtype=float),
            profile_demand_dt=np.array(
                [state.profile_demand_dt], dtype=float).reshape(1, -1),
            profile_renewable=np.array([r], dtype=float),
            profile_price_rt=np.array([prices], dtype=float))


def _window_values(w: StackedWindows, rates: np.ndarray) -> np.ndarray:
    """Certainty-equivalent window cost at every ``(scenario, rate)``.

    ``rates`` is ``(count, C)``; the cost components are the array form
    of the rules in the module docstring — per-slot deficits topped up
    at that hour's price, the deferred pool served from surplus then
    from the cheapest observed hours within the per-window headroom (a
    constant-step waterfall in closed form), the battery tier, then
    waste.  All reductions run over the last, contiguous axis (window
    slots), so each ``(scenario, rate)`` lane's result is independent
    of how many other lanes are evaluated alongside it — the scalar
    solver is literally the ``count == 1`` call of this kernel.
    """
    gap = w.nets[:, None, :] - rates[:, :, None]
    deficits = np.maximum(gap, 0.0)
    surplus = (deficits - gap).sum(axis=-1) * w.scale[:, None]

    # Delay-sensitive deficits: real-time top-up at each hour's price.
    vprices = w.v[:, None] * w.prices
    cost = (w.v[:, None] * w.price_lt[:, None] * rates
            * w.t_slots[:, None]
            + (vprices[:, None, :] * deficits).sum(axis=-1)
            * w.scale[:, None])

    # Deferred service: surplus slots first (free), then the cheapest
    # observed hours at their real-time prices, respecting headroom.
    # Buying min(remaining, headroom) per price step drains the pool
    # by one headroom per step until it runs dry: step k buys
    # min(headroom, max(0, remaining − k·headroom)).
    pools = w.pools[:, None]
    served_free = np.minimum(surplus, pools)
    leftover = surplus - served_free
    remaining = pools - served_free
    headroom = np.maximum(0.0, w.p_grid[:, None] - rates) \
        * w.scale[:, None]
    bought = np.minimum(
        headroom[:, :, None],
        np.maximum(0.0, remaining[:, :, None]
                   - _steps(w.n)[None, None, :] * headroom[:, :, None]))
    waterfall = (np.sort(vprices, axis=1)[:, None, :]
                 * bought).sum(axis=-1)
    cost = np.where(w.pools[:, None] > 0, cost + waterfall, cost)

    # Battery tier, then waste.
    tier = ((w.battery_value > 0)
            & (w.headroom_total > 0))[:, None]
    absorbed = np.minimum(leftover, w.headroom_total[:, None])
    cost = np.where(tier,
                    cost - w.battery_value[:, None] * absorbed, cost)
    leftover = np.where(tier, leftover - absorbed, leftover)
    return cost + (w.v * w.waste_penalty)[:, None] * leftover


def _base_grids(w: StackedWindows) -> np.ndarray:
    """Sorted, deduplicated base candidate grids, one row per scenario.

    Each row is ``{floor, Pgrid} ∪ (net profile ∩ [floor, Pgrid])``
    exactly as :func:`repro.solvers.piecewise.piecewise_candidates_1d`
    builds it; rows are padded to a common width with duplicates of
    ``Pgrid``, which are harmless — the selection scan never lets an
    equal-valued later candidate win.
    """
    raw = np.concatenate((w.floors[:, None], w.p_grid[:, None], w.nets),
                         axis=1)
    inside = (w.floors[:, None] <= raw) & (raw <= w.p_grid[:, None])
    work = np.sort(np.where(inside, raw, np.inf), axis=1)
    deduped = np.concatenate(
        (work[:, :1],
         np.where(work[:, 1:] == work[:, :-1], np.inf, work[:, 1:])),
        axis=1)
    grid = np.sort(deduped, axis=1)
    return np.where(np.isinf(grid), w.p_grid[:, None], grid)


def _deferred_breakpoints(w: StackedWindows,
                          grids: np.ndarray) -> np.ndarray:
    """Candidate rates where the deferred-service cost changes slope.

    The per-slot deficit/surplus terms kink only at the net-profile
    values (already on the base grids), but the deferred-service
    waterfall and the battery tier kink where

    * the window surplus crosses the deferred pool (``remaining``
      hits 0; the waste/battery leftover turns on),
    * ``remaining = k · headroom`` for ``k = 1..n`` (the waterfall
      stops needing its k-th cheapest hour), and
    * the leftover surplus crosses the battery's charge headroom,

    all of which move with the candidate rate.  Since ``remaining =
    pool − min(surplus, pool)``, every waterfall condition rewrites to
    ``surplus + k·headroom = pool`` — and surplus and headroom are
    both linear between base candidates, so one sign-flip
    interpolation pass over the grids locates every crossing exactly.
    Returns a ``(count, X)`` matrix padded with ``Pgrid`` duplicates
    (or an empty one when no scenario has a crossing).
    """
    gap = w.nets[:, None, :] - grids[:, :, None]
    deficits = np.maximum(gap, 0.0)
    surplus = (deficits - gap).sum(axis=-1) * w.scale[:, None]
    headroom = np.maximum(0.0, w.p_grid[:, None] - grids) \
        * w.scale[:, None]

    waterfall = (surplus[:, None, :]
                 + _steps(w.n + 1)[None, :, None] * headroom[:, None, :]
                 - w.pools[:, None, None])
    battery = (surplus
               - (w.pools + w.headroom_total)[:, None])[:, None, :]
    f = np.concatenate((waterfall, battery), axis=1)

    tier = (w.battery_value > 0) & (w.headroom_total > 0)
    active = np.concatenate(
        (np.repeat((w.pools > 0)[:, None], w.n + 1, axis=1),
         tier[:, None]), axis=1)
    positive = f > 0.0
    flips = ((positive[:, :, :-1] != positive[:, :, 1:])
             & active[:, :, None])
    scen, row, seg = np.nonzero(flips)
    if scen.size == 0:
        return np.empty((w.count, 0))

    f0, f1 = f[scen, row, seg], f[scen, row, seg + 1]
    r0, r1 = grids[scen, seg], grids[scen, seg + 1]
    crossings = r0 - f0 * (r1 - r0) / (f1 - f0)

    counts = np.bincount(scen, minlength=w.count)
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    padded = np.repeat(w.p_grid[:, None], int(counts.max()), axis=1)
    padded[scen, np.arange(scen.size) - offsets[scen]] = crossings
    return padded


def _scan(w: StackedWindows, candidates: np.ndarray,
          values: np.ndarray) -> np.ndarray:
    """Per-scenario selection with the scalar scan's tie-breaking.

    The reference scan accepts a candidate only when it improves the
    incumbent by more than 1e-12 (earlier candidates keep ties); when
    no value lies strictly inside ``(min, min + 1e-12]`` that scan
    provably selects the first minimizer, so argmin covers the common
    case and ambiguous rows replay the exact cascade.
    """
    minimum = values.min(axis=1)
    rows = values.argmin(axis=1)
    gap_zone = ((values <= (minimum + 1e-12)[:, None])
                & (values != minimum[:, None]))
    for index in np.nonzero(gap_zone.any(axis=1))[0]:
        best_value = float("inf")
        best_row = 0
        for row, value in enumerate(values[index].tolist()):
            if value < best_value - 1e-12:
                best_value = value
                best_row = row
        rows[index] = best_row
    return candidates[np.arange(w.count), rows]


def solve_windows(w: StackedWindows,
                  mode: ObjectiveMode = ObjectiveMode.DERIVED
                  ) -> np.ndarray:
    """Solve P4 for every stacked scenario; returns ``(count,)`` rates.

    The advance purchase is ``rate · T`` and the floor ``w.floors``.
    """
    if mode is ObjectiveMode.PAPER:
        coefficient = w.v * w.price_lt - w.q_hat - w.y_hat
        return np.where(coefficient < 0, w.p_grid, w.floors)

    # Derived mode: exact 1-D piecewise-linear minimization over the
    # delivery rate, every scenario's candidate set in one pass.
    grids = _base_grids(w)
    extra = _deferred_breakpoints(w, grids)
    if extra.shape[1]:
        candidates = np.sort(np.concatenate((grids, extra), axis=1),
                             axis=1)
    else:
        candidates = grids
    return _scan(w, candidates, _window_values(w, candidates))


def _window_cost(state: P4State, rate: float) -> float:
    """Window cost of a single rate (tests and candidate probing)."""
    return float(_window_values(StackedWindows.from_state(state),
                                np.array([[float(rate)]]))[0, 0])


def solve_p4(state: P4State,
             mode: ObjectiveMode = ObjectiveMode.DERIVED) -> P4Solution:
    """Solve the long-term-ahead purchasing subproblem.

    The one-row case of :func:`solve_windows`, so the scalar and batch
    engines plan bit-identically by construction.
    """
    w = StackedWindows.from_state(state)
    rate = float(solve_windows(w, mode)[0])
    return P4Solution(gbef=rate * state.t_slots, rate=rate,
                      floor_rate=float(w.floors[0]))
