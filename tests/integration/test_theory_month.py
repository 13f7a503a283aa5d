"""The paper's analytical content, verified over one paper month.

One 31-day paper system and trace realization (seed 20130708, V=1,
ε=0.5) carries four checks:

* trace validation — the statistical properties the synthetic-trace
  substitution rests on;
* Theorem 1 — the per-slot drift inequality, on every slot;
* Theorem 2 — the queue/battery/delay/cost-gap bounds against the run;
* savings decomposition — the counterfactual ladder behind the Fig. 7
  effect-size ranking.
"""

import pytest

from repro.analysis.decomposition import decompose_savings
from oracles.drift import DriftRecorder, verify_drift_inequality
from oracles.theory import all_hold, verify_theorem2
from repro.baselines.offline import OfflineOptimal
from repro.config.presets import paper_controller_config, paper_system_config
from repro.sim.engine import Simulator
from repro.traces.library import make_paper_traces
from oracles.trace_validation import all_valid, validate_paper_traces

SEED = 20130708


@pytest.fixture(scope="module")
def month():
    system = paper_system_config()
    traces = make_paper_traces(system, seed=SEED)
    config = paper_controller_config()
    recorder = DriftRecorder(config)
    result = Simulator(system, recorder, traces).run()
    return system, traces, config, recorder, result


def test_paper_traces_validate(month):
    _, traces, _, _, _ = month
    assert all_valid(validate_paper_traces(traces))


def test_theorem1_drift_inequality_holds(month):
    system, _, config, recorder, _ = month
    drift = verify_drift_inequality(recorder.samples, system,
                                    config.epsilon)
    assert drift["holds"]


def test_theorem2_bounds_hold(month):
    system, traces, config, recorder, result = month
    offline = Simulator(system, OfflineOptimal(traces), traces).run()
    assert all_hold(verify_theorem2(
        result, v=config.v, epsilon=config.epsilon,
        price_cap_normalized=system.p_max / config.price_scale,
        y_peak=recorder._y_queue.peak,
        offline_time_average=offline.time_average_cost))


def test_savings_decomposition(month):
    system, traces, config, _, _ = month
    decomposition = decompose_savings(system, traces, config)
    assert decomposition.total_saving > 0.0
    assert decomposition.markets_value > 0.0
