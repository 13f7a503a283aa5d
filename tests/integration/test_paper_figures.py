"""The paper's evaluation figures, regenerated at their default settings.

Each test runs one experiment of :mod:`repro.experiments` exactly as
``python -m repro.experiments <id>`` does (default seed and horizon)
and asserts the qualitative shape the paper claims for that figure.
The rendered tables themselves are the CLI's job; these tests pin only
the claims.
"""

from repro.experiments.ablations import run_ablations
from repro.experiments.fig5_traces import run_fig5
from repro.experiments.fig6_t_sweep import run_fig6_t
from repro.experiments.fig6_v_sweep import run_fig6_v
from repro.experiments.fig7_factors import run_fig7
from repro.experiments.fig8_penetration import run_fig8
from repro.experiments.fig9_robustness import run_fig9
from repro.experiments.fig10_scaling import run_fig10


def test_fig5_traces():
    """Fig. 5: diurnal demand with peaks clipped at ``Pgrid``,
    daytime-only solar, double-peaked prices with the long-term market
    cheaper on average."""
    result = run_fig5()
    summary = result.summary
    # Demand peaks were clipped at Pgrid = 2 MWh.
    assert summary["demand_total"]["max"] <= 2.0 + 1e-9
    # Solar produces nothing at night and something during the day.
    assert result.hourly_solar[0] == 0.0
    assert result.hourly_solar[12] > 0.1
    # The long-term market is cheaper on average (paper Section II-B.2).
    assert result.price_premium_rt_over_lt > 0.0
    # Renewables cover a noticeable but minority share of demand.
    assert 0.02 < result.renewable_penetration < 0.5


def test_fig6_v_sweep():
    """Fig. 6(a,b): the ``[O(1/V), O(V)]`` cost-delay trade-off.  Cost
    falls toward the offline optimum as ``V`` grows, delay rises, and
    SmartDPSS sits between Impatient (cost) and the offline optimum."""
    result = run_fig6_v()
    rows = result.rows
    # Shape: cost noninc / delay nondec across the sweep.
    assert result.cost_monotone_nonincreasing
    assert result.delay_monotone_nondecreasing
    # Endpoints move materially (the trade-off is real, not noise).
    assert rows[-1].time_avg_cost < rows[0].time_avg_cost * 0.97
    assert rows[-1].avg_delay_slots > rows[0].avg_delay_slots * 3.0
    # SmartDPSS beats Impatient on cost at every V...
    assert all(r.time_avg_cost < result.impatient_cost for r in rows)
    # ...and never beats the clairvoyant offline optimum.
    assert all(r.time_avg_cost > result.offline_cost for r in rows)
    # Availability is never sacrificed.
    assert all(r.availability == 1.0 for r in rows)


def test_fig6_t_sweep():
    """Fig. 6(c,d): cost fluctuates only a few percent across
    ``T ∈ [3h, 6 days]`` while delay depends strongly on ``T``.

    The paper's prose contradicts itself on the delay *direction*; this
    follows its stated rationale — "with more frequent (smaller T)
    power management, the power demand is easier to meet (less
    delay)" — i.e. delay grows with ``T``.
    """
    result = run_fig6_t()
    rows = result.rows
    # Cost stays within a one-digit-percent band of the T=24 reference
    # (paper: [-3.65%, +6.23%]).
    lo, hi = result.cost_fluctuation
    assert -0.10 < lo <= 0.0 <= hi < 0.10
    # Delay grows with T (the paper's stated rationale).
    assert rows[-1].avg_delay_slots > rows[0].avg_delay_slots * 2.0


def test_fig7_factors():
    """Fig. 7 (Section VI-B.3): cost increases with ε and decreases
    with UPS size, and the two-timescale market beats real-time-only."""
    result = run_fig7()
    assert result.epsilon_cost_nondecreasing
    assert result.battery_cost_nonincreasing
    assert result.two_markets_cheaper
    # Larger epsilon trades cost for delay: the largest ε must have
    # the smallest delay in the sweep.
    delays = [r.avg_delay_slots for r in result.epsilon_rows]
    assert delays[-1] == min(delays)
    # The market-structure effect is substantial (several percent).
    market = {r.label: r.time_avg_cost for r in result.market_rows}
    assert market["RTM"] > market["TM"] * 1.03


def test_fig8_penetration():
    """Fig. 8: cost falls significantly with renewable penetration
    (renewables are harvested cost-free) and rises slightly with demand
    variation, the battery and the two markets absorbing most of it."""
    result = run_fig8()
    pen = result.penetration_rows
    # Cost decreases substantially from 0% to 100% penetration.
    assert result.penetration_cost_decreasing
    assert pen[-1].time_avg_cost < pen[0].time_avg_cost * 0.85
    # And monotonically along the sweep (2% slack per step).
    costs = [r.time_avg_cost for r in pen]
    assert all(costs[i + 1] <= costs[i] * 1.02
               for i in range(len(costs) - 1))
    # Variation raises cost, but only mildly (paper: "slightly").
    var = result.variation_rows
    assert result.variation_cost_increasing
    assert var[-1].time_avg_cost < var[0].time_avg_cost * 1.15


def test_fig9_robustness():
    """Fig. 9: with uniform ±50% errors in the demand, solar and price
    data the controller sees, the change in cost reduction stays in a
    small band for every ``V`` (paper: [-1.6%, +2.1%] on its trace).
    The band here is wider (synthetic traces, another noise draw) but
    the claim is the same: bounded degradation, no blow-up at any V."""
    result = run_fig9()
    lo, hi = result.difference_band
    # Bounded degradation across every V (±8% is still "robust"
    # against ±50% noise).
    assert -0.08 < lo <= hi < 0.08
    # Even with noise, SmartDPSS never does materially worse than the
    # Impatient baseline.
    assert all(r.noisy_reduction > -0.02 for r in result.rows)


def test_fig10_scaling():
    """Fig. 10: with demand and renewables expanded β-fold (UPS fixed),
    total cost grows almost linearly, the growth rate slowing as the
    system expands, and the system stays stable."""
    result = run_fig10()
    rows = result.rows
    assert result.subscaling_holds
    # Cost grows with scale, but less than proportionally at each step.
    for prev, cur in zip(rows, rows[1:]):
        growth = cur.time_avg_cost / prev.time_avg_cost
        assert growth < cur.beta / prev.beta * 1.02
        assert growth > 1.0
    # Per-unit cost stays within a narrow band (no diseconomies).
    per_unit = [r.cost_per_unit_demand for r in rows]
    assert max(per_unit) < min(per_unit) * 1.05
    # Availability survives a 10x expansion.
    assert all(r.availability == 1.0 for r in rows)


def test_ablations():
    """The design-decision ablations (Abl-1..5).

    * the printed P5 objective is strictly worse than the derived one
      (the paper's sign typo, quantified);
    * the cycle budget degrades gracefully;
    * pre-buying for deferrable arrivals loses money versus V-gated
      real-time service;
    * SmartDPSS beats a generic price-threshold heuristic.
    """
    result = run_ablations()

    objective = {r.label: r for r in result.study("objective")}
    assert (objective["derived"].time_avg_cost
            < objective["paper"].time_avg_cost)
    assert (objective["derived"].avg_delay_slots
            < objective["paper"].avg_delay_slots)

    budgets = result.study("cycle_budget")
    # Tighter budgets are respected...
    assert budgets[-1].battery_ops <= 31
    # ...at bounded extra cost (battery is small: < 1% swing).
    costs = [r.time_avg_cost for r in budgets]
    assert max(costs) < min(costs) * 1.01

    arrivals = {r.label: r for r in result.study("p4_arrivals")}
    assert (arrivals["defer"].time_avg_cost
            <= arrivals["plan"].time_avg_cost * 1.005)

    myopic = result.study("baseline")[0]
    derived = objective["derived"]
    assert derived.time_avg_cost < myopic.time_avg_cost
