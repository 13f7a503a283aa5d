"""Span timers and counters for the fleet pipeline.

Design constraints (set by the streamed engines this instruments):

* **Explicitly passed, never global.**  A :class:`Telemetry` object is
  handed down the call chain (runner → engine → controller → solver)
  as an argument — worker processes each own one, and nothing on the
  hot path reads module state.
* **One shape, never ``None``.**  Every layer that takes telemetry
  holds a collector — a live :class:`Telemetry`, or
  :data:`TELEMETRY_OFF`, the default — and times a stage with one
  ``with tele.span(name):`` block.  :data:`TELEMETRY_OFF` is a
  process-wide :class:`NullTelemetry` singleton whose methods are
  allocation-free no-ops (``span`` returns one shared context manager;
  nothing is created per call), so a disabled span costs a method call
  and an empty ``with``.  The records a simulation produces are the
  same bit for bit whether telemetry is on or off: instrumentation
  only ever *reads* the monotonic clock, never any numeric state
  (``tests/equivalence/test_telemetry_identity.py`` pins this).
* **Mergeable across process boundaries.**  A worker reduces its
  telemetry to a :class:`TelemetrySnapshot` of plain dicts (picklable,
  JSON-ready); the parent merges shard snapshots with
  :meth:`TelemetrySnapshot.merge` — sums for span totals/counts and
  counters, maxima for span peaks and process samples — into the
  run-level :class:`~repro.telemetry.manifest.RunManifest`.

Span semantics: one span name accumulates ``total_s`` / ``count`` /
``max_s`` over all its enter/exit pairs on the collector's
:attr:`Telemetry.clock` (:func:`time.perf_counter`).  Spans may nest
(``plan`` contains ``p4``); totals of nested names therefore overlap
and are reported as a *breakdown*, not a partition.  On multi-worker
runs the totals sum worker wall-time, so stage totals can legitimately
exceed the run's elapsed wall-clock.

Quickstart::

    from repro.telemetry import Telemetry

    tele = Telemetry()
    with tele.span("solve"):
        ...
    tele.count("scenarios", 64)
    snapshot = tele.snapshot(process=True)
    print(snapshot.spans["solve"]["total_s"])
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

__all__ = [
    "NullTelemetry",
    "TELEMETRY_OFF",
    "Telemetry",
    "TelemetrySnapshot",
    "monotonic",
]


def monotonic() -> float:
    """The library's one blessed clock read (monotonic seconds).

    Everything outside :mod:`repro.telemetry` that needs elapsed time
    (shard timing, CLI progress rates) calls this instead of touching
    :mod:`time` directly, so the wallclock-hygiene lint rule
    (``repro.lint`` R005) can statically guarantee that record-producing
    code paths never read a clock the replay layer cannot substitute.
    Same clock as :attr:`Telemetry.clock` (:func:`time.perf_counter`).
    """
    return time.perf_counter()


class _NullSpan:
    """The shared do-nothing context manager ``NullTelemetry.span``
    returns — one instance per process, so disabled spans allocate
    nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Disabled instrumentation: every operation is an allocation-free
    no-op.

    Instrumented layers hold either a live :class:`Telemetry` or this
    class's singleton :data:`TELEMETRY_OFF` (their default), so a
    disabled site costs one method call that does nothing.  Only work
    beyond the call itself — a dynamic name, a formatted label — needs
    an ``if tele.enabled:`` guard.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: int | float = 1) -> None:
        pass

    def snapshot(self, process: bool = False) -> "TelemetrySnapshot":
        return TelemetrySnapshot()


#: Process-wide disabled singleton: the default collector of every
#: instrumented layer.
TELEMETRY_OFF = NullTelemetry()


class _Span:
    """Reusable context manager accumulating into one name's stats.

    One instance per (telemetry, name): entering reads the collector's
    clock, exiting folds the elapsed time into the shared ``[total,
    count, max]`` list.  Same-name spans must not nest (no pipeline
    stage does); distinct names nest freely.
    """

    __slots__ = ("_stats", "_clock", "_t0")

    def __init__(self, stats: list, clock: Callable[[], float]):
        self._stats = stats
        self._clock = clock
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = self._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = self._clock() - self._t0
        stats = self._stats
        stats[0] += elapsed
        stats[1] += 1
        if elapsed > stats[2]:
            stats[2] = elapsed
        return False


class Telemetry:
    """Enabled instrumentation: monotonic span timers and counters.

    All state is instance-local (explicitly passed down the pipeline);
    :meth:`snapshot` reduces it to plain dicts for the process
    boundary.  Not thread-safe — one collector per worker/shard, by
    construction of the fleet runner.
    """

    __slots__ = ("_spans", "_span_objs", "_counters")

    enabled = True
    #: The one clock every span reads (a subclass may substitute it).
    clock = staticmethod(time.perf_counter)

    def __init__(self):
        self._spans: dict[str, list] = {}
        self._span_objs: dict[str, _Span] = {}
        self._counters: dict[str, float] = {}

    def span(self, name: str) -> _Span:
        """The (cached, reusable) timing context manager for ``name``."""
        span = self._span_objs.get(name)
        if span is None:
            stats = self._spans.setdefault(name, [0.0, 0, 0.0])
            span = self._span_objs[name] = _Span(stats, self.clock)
        return span

    def count(self, name: str, value: int | float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def snapshot(self, process: bool = False) -> "TelemetrySnapshot":
        """Reduce to a plain-dict snapshot (picklable, JSON-ready).

        ``process=True`` additionally samples process-level facts:
        peak RSS (``resource.getrusage``, kilobytes on Linux) and — if
        a :mod:`tracemalloc` trace happens to be running — the traced
        current/peak byte counts (the optional allocation probe).
        """
        spans = {name: {"total_s": stats[0], "count": stats[1],
                        "max_s": stats[2]}
                 for name, stats in self._spans.items()}
        proc: dict[str, float] = {}
        if process:
            proc = _process_sample()
        return TelemetrySnapshot(spans=spans,
                                 counters=dict(self._counters),
                                 process=proc)


def _process_sample() -> dict[str, float]:
    """Peak RSS plus the optional tracemalloc probe (see snapshot)."""
    sample: dict[str, float] = {}
    try:
        import resource

        sample["peak_rss_kb"] = float(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except (ImportError, ValueError):  # pragma: no cover - non-unix
        pass
    import tracemalloc

    if tracemalloc.is_tracing():
        current, peak = tracemalloc.get_traced_memory()
        sample["tracemalloc_current_kb"] = current / 1024
        sample["tracemalloc_peak_kb"] = peak / 1024
    return sample


@dataclass(frozen=True)
class TelemetrySnapshot:
    """One collector's state as plain dicts (what crosses processes).

    ``spans`` maps name → ``{"total_s", "count", "max_s"}``;
    ``counters`` maps name → number; ``process`` holds the optional
    peak-RSS / tracemalloc sample.  :meth:`merge` is associative and
    commutative (sums and maxima), with the empty snapshot as identity
    — shard snapshots therefore fold into a run total in any order,
    which the fleet runner relies on when shards finish out of order
    across workers.
    """

    spans: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    process: dict = field(default_factory=dict)

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """This snapshot folded with ``other`` (neither is mutated)."""
        spans = {name: dict(stats) for name, stats in self.spans.items()}
        for name, stats in other.spans.items():
            mine = spans.get(name)
            if mine is None:
                spans[name] = dict(stats)
            else:
                mine["total_s"] += stats["total_s"]
                mine["count"] += stats["count"]
                mine["max_s"] = max(mine["max_s"], stats["max_s"])
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        process = dict(self.process)
        for name, value in other.process.items():
            process[name] = max(process[name], value) \
                if name in process else value
        return TelemetrySnapshot(spans=spans, counters=counters,
                                 process=process)

    @classmethod
    def merge_all(cls, snapshots: Iterable["TelemetrySnapshot"]
                  ) -> "TelemetrySnapshot":
        """Fold any number of snapshots (empty iterable → identity)."""
        merged = cls()
        for snapshot in snapshots:
            merged = merged.merge(snapshot)
        return merged

    def as_dict(self) -> dict:
        """JSON-ready plain-dict form (inverse of :meth:`from_dict`)."""
        return {"spans": {name: dict(stats)
                          for name, stats in self.spans.items()},
                "counters": dict(self.counters),
                "process": dict(self.process)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TelemetrySnapshot":
        return cls(spans={name: dict(stats) for name, stats
                          in dict(data.get("spans", {})).items()},
                   counters=dict(data.get("counters", {})),
                   process=dict(data.get("process", {})))
