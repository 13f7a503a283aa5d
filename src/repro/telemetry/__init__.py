"""Fleet telemetry: explicit, near-free instrumentation + run manifests.

The observability layer of the streamed sweep pipeline, in two parts:

* :mod:`repro.telemetry.core` — :class:`Telemetry` (monotonic span
  timers and counters) and the disabled :data:`TELEMETRY_OFF`
  singleton whose operations are allocation-free no-ops.  Every
  instrumented layer holds one of the two (``TELEMETRY_OFF`` by
  default, never ``None``) and times a stage with one
  ``with tele.span(name):`` block.  Per-shard state reduces to a
  plain-dict :class:`TelemetrySnapshot` that crosses process
  boundaries and merges associatively.
* :mod:`repro.telemetry.manifest` — :class:`RunManifest`, the
  run-level record (fleet hash, worker count, per-stage
  wall-time breakdown, scenarios/s, cache stats) appended as a JSONL
  sidecar next to the result store and rendered by
  ``python -m repro.fleet stats``.

Enable on a fleet run with ``FleetRunner(..., telemetry=True)`` or
``python -m repro.fleet run --telemetry``; records are bit-identical
with telemetry on or off (the instrumentation reads clocks, never
numeric state).
"""

from repro.telemetry.core import (
    NullTelemetry,
    TELEMETRY_OFF,
    Telemetry,
    TelemetrySnapshot,
    monotonic,
)
from repro.telemetry.manifest import (
    MANIFEST_VERSION,
    RunManifest,
    build_manifest,
    fleet_content_hash,
    render_manifest,
    stage_split,
)

__all__ = [
    "MANIFEST_VERSION",
    "NullTelemetry",
    "RunManifest",
    "TELEMETRY_OFF",
    "Telemetry",
    "TelemetrySnapshot",
    "build_manifest",
    "fleet_content_hash",
    "monotonic",
    "render_manifest",
    "stage_split",
]
