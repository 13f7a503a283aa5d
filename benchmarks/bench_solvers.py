"""Microbenchmarks of the optimization substrate (Abl-3 cross-checks).

Times the hot path (the exact P5 vertex enumeration runs every
simulated fine slot) and the offline LP, and cross-checks the from-
scratch simplex against HiGHS on a small structured instance.
"""

import numpy as np

from repro.config.control import ObjectiveMode
from repro.config.presets import paper_system_config
from repro.core.modes import SlotState
from repro.core.p5 import solve_p5
from repro.baselines.offline import solve_offline_plan
from repro.solvers.batch_lp import CompiledLp
from repro.solvers.linear_program import LpModel
from repro.solvers.simplex import solve_with_simplex
from repro.traces.library import make_paper_traces


def _slot_state(seed: int = 3) -> SlotState:
    rng = np.random.default_rng(seed)
    return SlotState(
        q_hat=float(rng.uniform(0, 10)),
        y_hat=float(rng.uniform(0, 10)),
        x_hat=float(rng.uniform(-6, 1)),
        v=1.0,
        price_rt=float(rng.uniform(1.8, 20.0)),
        battery_op_cost=0.01,
        waste_penalty=0.1,
        backlog=float(rng.uniform(0, 8)),
        gbef_rate=float(rng.uniform(0, 2)),
        renewable=float(rng.uniform(0, 1)),
        demand_ds=float(rng.uniform(0.5, 2.0)),
        charge_cap=0.5,
        discharge_cap=0.37,
        eta_c=0.8,
        eta_d=1.25,
        s_dt_max=2.0,
        grt_cap=1.0,
        battery_margin=0.3,
    )


def _small_lp() -> LpModel:
    model = LpModel("bench-small")
    x = model.add_var("x", lb=0.0, ub=4.0, cost=1.0)
    y = model.add_var("y", lb=0.0, ub=4.0, cost=2.0)
    z = model.add_var("z", lb=0.0, cost=-1.0)
    model.add_ge({x: 1.0, y: 1.0}, 3.0)
    model.add_le({z: 1.0, x: -1.0}, 0.0)
    model.add_eq({y: 2.0, z: 1.0}, 4.0)
    return model


def test_p5_enumeration_speed(benchmark):
    state = _slot_state()
    solution = benchmark(solve_p5, state, ObjectiveMode.DERIVED)
    assert solution.feasible


def test_offline_lp_speed(benchmark):
    system = paper_system_config(days=7)
    traces = make_paper_traces(system, seed=11)
    plan = benchmark.pedantic(solve_offline_plan, args=(system, traces),
                              rounds=1, iterations=1)
    assert plan.lp_objective > 0


def test_simplex_matches_highs(benchmark):
    model = _small_lp()
    simplex = benchmark(solve_with_simplex, model)
    highs = CompiledLp(model).solve()
    assert abs(simplex.objective - highs.objective) < 1e-7
