"""The one metrics fold against the independent scalar formulas.

:func:`~oracles.engine.metrics_from_result` feeds a result's series
through the streamed engine's aggregator and fold, and the equivalence
harness pins the streamed engine to it exactly.  This pack checks the
fold itself against separate code: the summaries :mod:`oracles.results`
and :class:`SimulationResult` compute with NumPy reductions.  The sums
differ only in order (slot by slot in the fold, pairwise in NumPy),
hence the 1e-12 tolerance.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from oracles import results
from oracles.engine import metrics_from_result
from repro.baselines.impatient import ImpatientController
from repro.baselines.offline import OfflineOptimal
from repro.config.presets import paper_controller_config, paper_system_config
from repro.core.smartdpss import SmartDPSS
from repro.sim.engine import Simulator
from repro.traces.library import make_paper_traces

pytestmark = pytest.mark.fleet

SYSTEM = paper_system_config(days=2, fine_slots_per_coarse=6)
TRACES = make_paper_traces(SYSTEM, seed=5)
ZERO = np.zeros(SYSTEM.horizon_slots)

#: (case id, traces, controller factory).
CASES = [
    ("smartdpss-derived", TRACES, lambda traces: SmartDPSS(
        paper_controller_config(objective_mode="derived"))),
    ("smartdpss-paper", TRACES, lambda traces: SmartDPSS(
        paper_controller_config(objective_mode="paper"))),
    ("impatient", TRACES, lambda traces: ImpatientController()),
    ("offline", TRACES, OfflineOptimal),
    # produced == 0: renewable utilization takes its 1.0 branch.
    ("no-renewable", dataclasses.replace(TRACES, renewable=ZERO),
     lambda traces: SmartDPSS(paper_controller_config())),
    # demand_ds == 0: availability takes its 1.0 branch.
    ("no-ds-demand", dataclasses.replace(TRACES, demand_ds=ZERO),
     lambda traces: SmartDPSS(paper_controller_config())),
]


def _scalar_reference(result) -> dict:
    """Every record field the result's own summaries also report."""
    levels = result.series["battery_level"]
    low, high = float(levels.min()), float(levels.max())
    return {**results.summary(result), "battery_min": low,
            "battery_max": high,
            "battery_throughput": results.battery_throughput(result),
            "unserved_ds_total": results.unserved_ds_total(result)}


@pytest.mark.parametrize("traces, build",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_fold_matches_scalar_formulas(traces, build):
    result = Simulator(SYSTEM, build(traces), traces).run()
    record = metrics_from_result(result).as_dict()
    reference = _scalar_reference(result)
    assert set(reference) <= set(record)
    for name, want in reference.items():
        assert record[name] == pytest.approx(want, rel=1e-12, abs=1e-12), (
            name)


def test_cases_reach_both_unit_branches():
    """The zero-input cases reach the fold's zero-denominator branches."""
    by_id = {case[0]: case for case in CASES}
    for case_id, parts in (
            ("no-renewable", ("renewable_used", "renewable_curtailed")),
            ("no-ds-demand", ("served_ds", "unserved_ds"))):
        _, traces, build = by_id[case_id]
        series = Simulator(SYSTEM, build(traces), traces).run().series
        assert sum(float(series[part].sum()) for part in parts) == 0.0
