"""Discrete-time simulation engine for the DPSS.

The engine (:mod:`repro.sim.engine`) owns every piece of physical state
— UPS battery, backlog queue, market ledgers — and drives an arbitrary
:class:`~repro.core.interfaces.Controller` over a
:class:`~repro.traces.base.TraceSet`, resolving the supply-demand
balance (paper eq. 4) with hard clamps (the interconnect cap among
them) so no policy can violate a physical constraint.  Per-slot series land in a
:class:`~repro.sim.recorder.Recorder`; summaries (cost breakdown, delay
statistics, availability, battery cycling) in a
:class:`~repro.sim.results.SimulationResult`.

The scalar engine is the reference oracle and the source of per-slot
series.  Batches of scenarios — sweeps, figures, fleets — run on the
one batch engine, :class:`~repro.fleet.engine.StreamingBatchSimulator`,
through :class:`~repro.fleet.runner.FleetRunner`; this package keeps
the batch-controller protocol (:mod:`repro.sim.batch`, with the
:class:`ScalarControllerBatch` adapter for any scalar controller), the
vectorized physical state (:mod:`repro.sim.vecstate`) and the
seed-averaged :class:`SweepTable` a result store renders.
"""

from repro.sim.batch import ScalarControllerBatch
from repro.sim.engine import Simulator
from repro.sim.metrics import CostBreakdown, summarize_costs
from repro.sim.outages import (
    OutageSchedule,
    ride_through_report,
    sample_outages,
)
from repro.sim.recorder import Recorder
from repro.sim.results import SimulationResult
from repro.sim.sweep import SweepTable

__all__ = [
    "Simulator",
    "ScalarControllerBatch",
    "Recorder",
    "SimulationResult",
    "CostBreakdown",
    "summarize_costs",
    "OutageSchedule",
    "sample_outages",
    "ride_through_report",
    "SweepTable",
]
