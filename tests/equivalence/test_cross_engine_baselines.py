"""Cross-engine equivalence for the baseline controllers.

The hypothesis harness in ``test_cross_engine.py`` gates SmartDPSS;
fleet refactors also reroute the *baseline* policies through the batch
engine's scalar-controller adapter, so this module extends the same
generated-scenario treatment to them:

* :class:`~repro.baselines.impatient.ImpatientController` and
  :class:`~repro.baselines.myopic.MyopicPriceThreshold` — cheap, so
  they ride in every generated pack;
* :class:`~repro.baselines.lookahead.LookaheadController`,
  :class:`~repro.baselines.lookahead.PaperP2Offline` and
  :class:`~repro.baselines.offline.OfflineOptimal` — LP-backed oracles
  (deterministic given traces), exercised on tiny horizons so the
  hypothesis loop stays in seconds.

Each scenario runs through the scalar :class:`Simulator` with a fresh
controller instance and through the batch engine with a
:class:`~oracles.engine.BatchRecorder` plugged in (which batches the
mixed pack via ``ScalarControllerBatch``), and the two are compared
slot for slot with the shared 1e-9 bar.  A third leg — the engine's
own metrics run, as every fleet shard does it, oracles included —
replays the pack over :class:`~repro.fleet.stream.ArrayTraceStream`
views at a drawn chunk size, and its metrics must equal
:func:`~oracles.engine.metrics_from_result` of the recorded leg exactly.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from oracles.engine import metrics_from_result
from repro.baselines import (
    ImpatientController,
    LookaheadController,
    MyopicPriceThreshold,
    OfflineOptimal,
    PaperP2Offline,
)
from repro.fleet.engine import (
    ScenarioMetrics,
    StreamingBatchSimulator,
    StreamRunSpec,
)
from repro.fleet.stream import ArrayTraceStream
from repro.sim.engine import Simulator
from repro.traces.base import TraceSet

from tests.conftest import streamed_results
from tests.equivalence.test_cross_engine import (
    _floats,
    _series,
    assert_equivalent,
    systems,
)

pytestmark = pytest.mark.equivalence

#: (name, fresh-instance factory) per baseline; oracle factories take
#: the run's traces, online ones ignore them.
BASELINE_FACTORIES = {
    "impatient": lambda traces, draw: ImpatientController(
        plan_for_total_demand=draw(st.booleans())),
    "myopic": lambda traces, draw: MyopicPriceThreshold(
        serve_quantile=draw(_floats(0.1, 0.9))),
    "lookahead": lambda traces, draw: LookaheadController(
        traces,
        terminal_energy_value=draw(_floats(0.0, 80.0)),
        backlog_penalty=draw(_floats(0.0, 100.0))),
    "paper_p2": lambda traces, draw: PaperP2Offline(traces),
    "offline": lambda traces, draw: OfflineOptimal(
        traces, deadline_slots=draw(st.integers(2, 8))),
}


@st.composite
def baseline_packs(draw):
    """2-3 scenarios with baseline controllers on one tiny shape.

    Every pack mixes at least one LP-backed oracle with the cheap
    online baselines, so the batched ``ScalarControllerBatch`` path is
    exercised on a genuinely heterogeneous policy mix.
    """
    base = draw(systems()).replace(fine_slots_per_coarse=draw(
        st.integers(1, 3)), num_coarse_slots=2)
    n = base.horizon_slots
    kinds = draw(st.lists(
        st.sampled_from(sorted(BASELINE_FACTORIES)),
        min_size=2, max_size=3))
    if not set(kinds) & {"lookahead", "paper_p2", "offline"}:
        kinds[0] = "offline"
    packs = []
    for kind in kinds:
        # The oracle LPs have no unserved-demand slack, so (as the
        # paper does for its traces) keep per-slot demand within the
        # feeder's reach: dds below Pgrid, ddt below the service rate.
        traces = TraceSet(
            demand_ds=_series(draw, n, 0.0, 0.9 * base.p_grid),
            demand_dt=_series(draw, n, 0.0,
                              0.8 * min(base.s_dt_max, base.p_grid)),
            renewable=_series(draw, n, 0.0, 1.5),
            price_rt=_series(draw, n, 0.0, 200.0),
            price_lt_hourly=_series(draw, n, 0.0, 200.0),
        )
        packs.append((kind, base, traces,
                      BASELINE_FACTORIES[kind],
                      draw))
    return packs


@settings(max_examples=12, deadline=None)
@given(baseline_packs(), st.integers(1, 3))
def test_baselines_batch_matches_scalar(packs, chunk_coarse):
    """Generated baseline scenarios: recorded batch == scalar within
    1e-9, and the metrics run == the recorded batch exactly."""
    from repro.exceptions import InfeasibleProblemError

    runs = []
    stream_runs = []
    scalar_results = []
    for kind, system, traces, factory, draw in packs:
        # Independently built, identically configured instances: the
        # oracle controllers are deterministic in (traces, params), so
        # every leg sees the same policy.
        batch_controller = factory(traces, draw)

        def twin():
            return type(batch_controller)(**_ctor_args(
                batch_controller, traces))

        try:
            scalar_results.append(
                Simulator(system, twin(), traces).run())
        except InfeasibleProblemError:
            # Rare residual infeasibility (e.g. a tight deadline on a
            # tiny battery) — not a cross-engine property; skip.
            assume(False)
        runs.append(StreamRunSpec(system=system,
                                  controller=batch_controller,
                                  stream=ArrayTraceStream(traces)))
        stream_runs.append(StreamRunSpec(
            system=system, controller=twin(),
            stream=ArrayTraceStream(traces)))
    batch_results = streamed_results(runs)
    for index, (scalar, batch) in enumerate(
            zip(scalar_results, batch_results)):
        assert_equivalent(scalar, batch,
                          context=f"baseline scenario {index}: ")
    streamed = StreamingBatchSimulator(
        stream_runs, chunk_coarse=chunk_coarse).run()
    for index, (metrics, batch) in enumerate(
            zip(ScenarioMetrics.rows(streamed), batch_results)):
        assert metrics == \
            metrics_from_result(batch).as_dict(), (
                f"baseline scenario {index}, chunk_coarse "
                f"{chunk_coarse}")


def _ctor_args(controller, traces) -> dict:
    """Reconstruct a baseline's constructor arguments for a twin."""
    if isinstance(controller, ImpatientController):
        return {"plan_for_total_demand":
                controller.plan_for_total_demand}
    if isinstance(controller, MyopicPriceThreshold):
        return {"serve_quantile": controller.serve_quantile}
    if isinstance(controller, PaperP2Offline):
        return {"traces": traces,
                "terminal_energy_value":
                controller.terminal_energy_value}
    if isinstance(controller, LookaheadController):
        return {"traces": traces,
                "terminal_energy_value":
                controller.terminal_energy_value,
                "backlog_penalty": controller.backlog_penalty}
    if isinstance(controller, OfflineOptimal):
        return {"traces": traces,
                "deadline_slots": controller._deadline}
    raise TypeError(f"unexpected controller {type(controller)}")
