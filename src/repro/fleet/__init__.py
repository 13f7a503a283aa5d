"""Fleet subsystem: streamed scenario pipelines at sweep scale.

Everything the scalar engine assumes fits in RAM — full trace
horizons, per-slot series, one process — stops holding at 10⁴+-scenario
sweeps.  This package supplies the missing layers:

* :mod:`repro.fleet.stream` — chunked, seed-deterministic trace
  sources (``O(B · chunk)`` trace memory, bit-identical to full
  materialization for every chunk size);
* :mod:`repro.fleet.spec` — declarative, serializable
  :class:`ScenarioSpec` plus grid / product / random-sampling fleet
  generators; :meth:`ScenarioSpec.trace_key` is the tuple of inputs
  trace generation reads, so a shard builds each realization once for
  all its trace twins;
* :mod:`repro.fleet.engine` — the chunk-at-a-time
  :class:`StreamingBatchSimulator`, the one batch engine, with O(B)
  result aggregation;
* :mod:`repro.fleet.runner` — :class:`FleetRunner` sharding whole
  vectorized batches across worker processes (the library's one
  multi-core path);
* :mod:`repro.fleet.store` — append-only :class:`ResultStore` with
  seed-replicated aggregation back into
  :class:`~repro.sim.sweep.SweepTable`;
* :mod:`repro.fleet.observe` — streamed observation models (sensor
  noise and faults) derived per chunk on top of the true traces, and
  the one implementation of the paper's uniform observation noise.

Command line::

    python -m repro.fleet run --demo v-sweep --scenarios 10000 --out out/
    python -m repro.fleet report --out out/

Telemetry quickstart — answer "where did the time go" for any run::

    runner = FleetRunner(specs, store=store, telemetry=True)
    runner.run()
    print(runner.last_manifest.render())   # per-stage breakdown

    # or from the shell (the manifest persists next to the results):
    #   python -m repro.fleet run --demo v-sweep --out out/ --telemetry
    #   python -m repro.fleet stats out/

Instrumentation (:mod:`repro.telemetry`) is explicitly passed down
the pipeline — runner → engine → controller → solvers — and records
are bit-identical with telemetry on or off: span timers only read the
monotonic clock, never numeric state.  Disabled (the default), every
instrumented site costs one attribute check.

Failure semantics
-----------------
One poisoned scenario or one dead worker must not kill a 10⁴-scenario
sweep.  Unless ``FleetRunner(fail_fast=True)``:

* A shard exception, a worker crash (``BrokenProcessPool`` — the pool
  is respawned) or an expired ``shard_timeout`` sends the shard
  through **retry → bisect → quarantine**: up to ``max_retries``
  as-is re-runs with bounded exponential backoff, then repeated
  halving until the failure is pinned to one scenario, which is
  recorded in the store's ``errors.jsonl`` sidecar as a typed record
  (``{"spec", "spec_hash", "quarantined": true, "error": {"type",
  "message", "site", "attempts"}}`` — same torn-write-tolerant append
  discipline as results).  Every healthy scenario completes
  bit-identical to a fault-free run.
* Offline-gap LP failures degrade per scenario: the record simply
  omits its ``offline_cost``/``offline_gap`` columns instead of
  failing the shard.
* NaN/Inf trace values are caught at chunk boundaries with a typed
  :class:`~repro.exceptions.TraceCorruptionError` naming scenario and
  slot, which quarantines directly — no bisection needed.
* On resume, a quarantined hash counts as done (re-running would
  re-fail) until ``retry_quarantined=True`` (CLI
  ``--retry-quarantined``) re-offers it; a successful retry's result
  record then supersedes the quarantine record.

Counters (``retries`` / ``bisections`` / ``quarantined`` /
``pool_respawns``) land in :attr:`FleetRunner.last_run_stats` and, on
instrumented runs, in the run manifest.  Every recovery path is
exercised deterministically by the chaos suite
(``tests/test_fleet_faults.py``) through the seedable
:class:`~repro.fleet.faults.FaultPlan` harness — injectable via
``FleetRunner(fault_plan=...)`` or the ``REPRO_FAULT_PLAN``
environment variable, and *disarmed entirely* in production runs.

Observation models
------------------
Controllers at fleet scale see *observed* traces — the true series
passed through a declarative observation model — while physics and
billing always run on the truth.  The models (registered in
:data:`~repro.fleet.observe.OBSERVATION_KINDS`):

* ``uniform`` — multiplicative uniform relative error
  (``rel_error``), the paper's Fig. 9 noise;
* ``dropout`` — each slot lost independently (``rate``); the sensor
  holds its last good sample, so controllers degrade gracefully
  instead of seeing gaps;
* ``stuck`` — the sensor latches its previous reading for
  ``duration`` slots with probability ``rate`` per slot;
* ``bias_drift`` — a Gaussian random-walk multiplicative bias
  (``sigma`` per slot);
* ``delay`` — readings arrive ``slots`` slots late (the horizon's
  first value back-fills the initial gap).

Arm them per scenario via the serializable ``ScenarioSpec.observation``
axis (hashed into ``spec_hash``), or fleet-wide as a paired
clean-vs-noisy sweep via ``FleetRunner(robustness=...)`` (CLI
``--robustness REL``), which adds ``noisy_cost``/``robustness_gap``
columns to every record.  Noise draws come from dedicated
``observe:<series>`` substreams of the observation seed with explicit
per-chunk carry state, so streamed observations are bit-identical to
the whole-horizon reference
(:meth:`~repro.fleet.observe.ObservationSpec.observed_traces`, what
the scalar ``Simulator`` observes) for every chunk size — and with no observation model armed, records
are bit-identical to a build without this layer.  Non-finite observed
values raise a typed
:class:`~repro.exceptions.ObservationCorruptionError` (naming the
series and the ``observed`` view) that quarantines like any trace
corruption.

Every fleet shard — and every paper figure, which runs as a fleet
(:mod:`repro.experiments`) — runs the streamed engine: generated
traces stream chunk by chunk, while ``paper`` recipes, oracle
controllers and the offline-gap baseline stream over views of horizons
materialized once per distinct trace realization.
``tests/equivalence/`` gates it: for identical specs it is
bit-identical to the scalar reference engine, slot by slot.
"""

from repro.fleet.engine import (
    ScenarioMetrics,
    StreamingBatchSimulator,
    StreamRunSpec,
)
from repro.fleet.faults import Fault, FaultPlan
from repro.fleet.observe import (
    OBSERVATION_KINDS,
    BatchObserver,
    BiasDrift,
    DelayedReport,
    ObservationModel,
    ObservationSpec,
    ScenarioObserver,
    SensorDropout,
    StuckSensor,
    UniformNoise,
    observation_from_mapping,
)
from repro.fleet.runner import FleetRunner, ShardOutcome
from repro.fleet.spec import (
    ScenarioSpec,
    grid_specs,
    product_specs,
    sample_specs,
)
from repro.fleet.store import ResultStore
from repro.fleet.stream import (
    ArrayBatchStream,
    ArrayTraceStream,
    BatchTraceStream,
    StreamingPaperTraces,
    TraceStream,
)

__all__ = [
    "ArrayBatchStream",
    "ArrayTraceStream",
    "BatchObserver",
    "BatchTraceStream",
    "BiasDrift",
    "DelayedReport",
    "Fault",
    "FaultPlan",
    "FleetRunner",
    "OBSERVATION_KINDS",
    "ObservationModel",
    "ObservationSpec",
    "ResultStore",
    "ScenarioMetrics",
    "ScenarioObserver",
    "ScenarioSpec",
    "SensorDropout",
    "ShardOutcome",
    "StreamRunSpec",
    "StreamingBatchSimulator",
    "StreamingPaperTraces",
    "StuckSensor",
    "TraceStream",
    "UniformNoise",
    "grid_specs",
    "observation_from_mapping",
    "product_specs",
    "sample_specs",
]
