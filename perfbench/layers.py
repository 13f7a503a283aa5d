"""Benchmark-side timers for the layers that have no production span.

The traced run reads stage totals from the ``RunManifest`` that
``FleetRunner(telemetry=True)`` writes.  Four layer calls have no span
there, so while :func:`tracing` is active they are wrapped here:

* ``ScenarioSpec.from_dict``          -> ``bench.spec_decode``
* ``ScenarioSpec.to_dict``/``spec_hash`` and
  ``ScenarioMetrics.as_dict``          -> ``bench.record_encode``
* ``ScenarioSpec.build_traces``       -> ``bench.materialize``
* ``BatchObserver.observe_matrix``    -> ``bench.perturb``

The shard function itself (``repro.fleet.runner._run_spec_shard``) is
wrapped too.  The wrapper adds those spans to the shard's telemetry
dict, so the runner merges them into the manifest like any stage.  It
also adds a ``bench`` entry with the shard's submit, start and end
times on the system-wide monotonic clock, and the pickled size of its
payload and outcome.  :class:`ShardLog` turns these into pool-wait
and payload figures on the parent side.

Nothing here changes a record: the wrappers only read the clock.
Pool workers inherit the patches when they fork.  A worker started
any other way installs them on its first traced shard.
"""

from __future__ import annotations

import pickle
import time
from contextlib import contextmanager
from dataclasses import replace

from repro.fleet import BatchObserver, ScenarioMetrics, ScenarioSpec
from repro.fleet import runner as fleet_runner

#: Payload key carrying the parent-side submit time into the worker.
SUBMIT_KEY = "bench_submit_t"

#: Every wrapped layer call: (owner, attribute, span name).
_WRAPPED = (
    (ScenarioSpec, "from_dict", "bench.spec_decode"),
    (ScenarioSpec, "to_dict", "bench.record_encode"),
    (ScenarioSpec, "spec_hash", "bench.record_encode"),
    (ScenarioMetrics, "as_dict", "bench.record_encode"),
    (ScenarioSpec, "build_traces", "bench.materialize"),
    (BatchObserver, "observe_matrix", "bench.perturb"),
)
_ORIGINALS = {(owner, name): owner.__dict__[name]
              for owner, name, _ in _WRAPPED}
_ORIGINAL_SHARD = fleet_runner._run_spec_shard

#: Per-process accumulators: span name -> [total_s, count, max_s].
_spans: dict[str, list] = {}
#: Names of the timed regions currently open (an inner call of the
#: same region, e.g. ``to_dict`` inside ``spec_hash``, is not timed
#: twice).
_open: set[str] = set()


def _timed(span: str, func):
    def wrapper(*args, **kwargs):
        if span in _open:
            return func(*args, **kwargs)
        _open.add(span)
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            _open.discard(span)
            stats = _spans.setdefault(span, [0.0, 0, 0.0])
            stats[0] += elapsed
            stats[1] += 1
            stats[2] = max(stats[2], elapsed)
    return wrapper


def _install() -> None:
    if fleet_runner._run_spec_shard is traced_shard:
        return
    for owner, name, span in _WRAPPED:
        original = _ORIGINALS[owner, name]
        if isinstance(original, classmethod):
            setattr(owner, name, classmethod(_timed(span, original.__func__)))
        else:
            setattr(owner, name, _timed(span, original))
    fleet_runner._run_spec_shard = traced_shard


def _uninstall() -> None:
    for (owner, name), original in _ORIGINALS.items():
        setattr(owner, name, original)
    fleet_runner._run_spec_shard = _ORIGINAL_SHARD


def traced_shard(payload: dict):
    """``_run_spec_shard`` plus the benchmark's layer timers."""
    _install()
    submit = payload.get(SUBMIT_KEY)
    payload = {k: v for k, v in payload.items() if k != SUBMIT_KEY}
    _spans.clear()
    start = time.monotonic()
    outcome = _ORIGINAL_SHARD(payload)
    end = time.monotonic()
    transfer = len(pickle.dumps(payload)) + len(pickle.dumps(outcome))
    telemetry = dict(outcome.telemetry or {})
    spans = dict(telemetry.get("spans", {}))
    for name, (total, count, peak) in _spans.items():
        spans[name] = {"total_s": total, "count": count, "max_s": peak}
    telemetry["spans"] = spans
    telemetry["bench"] = {"submit": submit, "start": start, "end": end,
                          "bytes": transfer}
    return replace(outcome, telemetry=telemetry)


class ShardLog:
    """Parent-side per-shard samples of one traced fleet run.

    Attach it with :meth:`attach` before ``runner.run`` and pass it as
    the ``progress`` callback.
    """

    def __init__(self):
        self.shard_ms: list[float] = []
        self.wait_s: list[float] = []
        self.bytes: list[int] = []
        self.offline_lp_s: list[float] = []
        self._append_start = 0.0

    def attach(self, runner, store) -> None:
        stamp = runner._stamp
        append = store.append

        def stamped(payload, in_worker, attempts):
            return {**stamp(payload, in_worker, attempts),
                    SUBMIT_KEY: time.monotonic()}

        def timed_append(records):
            self._append_start = time.monotonic()
            return append(records)

        runner._stamp = stamped
        store.append = timed_append

    def __call__(self, outcome, finished, total, progress=None) -> None:
        telemetry = outcome.telemetry or {}
        bench = telemetry.get("bench")
        if bench is None:
            return
        self.shard_ms.append(1000.0 * outcome.elapsed_s)
        self.wait_s.append((bench["start"] - bench["submit"])
                           + (self._append_start - bench["end"]))
        self.bytes.append(bench["bytes"])
        lp = telemetry.get("spans", {}).get("offline_lp")
        self.offline_lp_s.append(lp["total_s"] if lp else 0.0)


@contextmanager
def tracing():
    """Install the layer timers for the duration of one traced run."""
    _install()
    try:
        yield
    finally:
        _uninstall()
