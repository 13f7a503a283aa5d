"""Run manifests: one JSON record describing a whole fleet run.

A :class:`RunManifest` is the run-level reduction of per-shard
:class:`~repro.telemetry.core.TelemetrySnapshot`\\ s plus the run's
configuration — what a sweep *was* (fleet content hash, worker
count, engine split) and where its time *went* (per-stage
wall-time breakdown, scenarios/s, cache warm-up).  The fleet runner
appends it to a ``manifest.jsonl`` sidecar next to the result store's
``results.jsonl`` (same append-only, torn-write-tolerant discipline),
so every stored sweep carries its own performance record and
``python -m repro.fleet stats <store>`` can render breakdowns long
after the run.

Stage totals come from overlapping spans (``plan`` contains ``p4``;
``slot_loop`` contains ``plan``/``real_time``/``physics``) and, on
multi-worker runs, sum *worker* wall-time — so shares are reported
against the summed per-shard time (the ``shard`` span), not the
run's elapsed wall-clock.

The record's fields (``python -m repro.fleet run --telemetry`` appends
one per run):

* ``fleet`` — scenario, executed and resumed counts, the shard count,
  and ``fleet_hash`` (order-independent digest of the per-spec content
  hashes: two runs over the same scenarios share it);
* ``config`` — workers, batch size, chunk size and the ``offline_gap``
  knob.  Manifests of older runs may also carry retired backend and
  reference-path keys; they still load and render;
* ``timing`` — elapsed wall-clock and scenarios/s over the executed
  scenarios only;
* ``stages`` — per-stage ``total_s`` / ``count`` / ``max_s`` merged
  across shards: ``traces`` (chunk loads), ``slot_loop`` with its
  nested ``plan → p4``, ``real_time → p5`` and ``physics``,
  ``delay_replay``, ``collect``, ``build``, ``store_append``, and
  where armed ``observe``, ``robustness``, ``offline_lp → lp_solve``
  and ``offline_replay``;
* ``counters`` / ``gauges`` / ``process`` / ``caches`` — slots, chunks,
  boundaries, scenarios, trace twins and the fault-tolerance counters;
  peak RSS (the maximum across processes); warm-vs-cold cache
  statistics sampled before and after the run.

``python -m repro.fleet stats <store>`` renders the latest manifest
(``--all``: every stored run) as a fixed-width table, top-level stages
by descending total with nested spans indented below their parent::

    run 2026-08-08T05:51:25+00:00 — 8 scenarios (0 resumed), ...
      stage                    total_s   share    count    avg_ms ...
      slot_loop                  0.024   65.7%        2    11.751
        real_time                0.010   28.7%       48     0.214
          p5                     0.009   25.1%       48     0.187
      ...

The shares answer "where did the time go" per run, durably: compare
manifests across commits to catch a regression without re-running a
benchmark.  If ``slot_loop``'s share drops while ``traces`` grows,
chunk generation regressed (the ``BatchTraceStream`` kernels); if
``p4``/``p5`` grow, the solvers; if ``store_append`` grows, the sink.
"""

from __future__ import annotations

import datetime as _datetime
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.telemetry.core import TelemetrySnapshot

__all__ = [
    "MANIFEST_VERSION",
    "RunManifest",
    "build_manifest",
    "fleet_content_hash",
    "render_manifest",
    "stage_split",
]

MANIFEST_VERSION = 1

#: Stage names whose spans are disjoint at the top level — the rows
#: shown first by the breakdown table; everything else (nested spans)
#: renders indented below its parent where known.
_NESTED_UNDER = {
    "plan": "slot_loop",
    "p4": "plan",
    "real_time": "slot_loop",
    "p5": "real_time",
    "physics": "slot_loop",
    "lp_solve": "offline_lp",
}


def fleet_content_hash(spec_hashes: Iterable[str]) -> str:
    """Content hash of a whole fleet: order-independent digest of its
    per-scenario spec hashes (two runs over the same scenarios share
    it, whatever the spec order)."""
    digest = hashlib.sha256()
    for spec_hash in sorted(spec_hashes):
        digest.update(spec_hash.encode("ascii"))
    return digest.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """One fleet run's telemetry reduced to a JSON-ready record."""

    created_at: str
    fleet: dict
    config: dict
    timing: dict
    stages: dict
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    process: dict = field(default_factory=dict)
    caches: dict = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "created_at": self.created_at,
            "fleet": dict(self.fleet),
            "config": dict(self.config),
            "timing": dict(self.timing),
            "stages": {name: dict(stats)
                       for name, stats in self.stages.items()},
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "process": dict(self.process),
            "caches": dict(self.caches),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunManifest":
        return cls(
            created_at=str(data.get("created_at", "")),
            fleet=dict(data.get("fleet", {})),
            config=dict(data.get("config", {})),
            timing=dict(data.get("timing", {})),
            stages={name: dict(stats) for name, stats
                    in dict(data.get("stages", {})).items()},
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            process=dict(data.get("process", {})),
            caches=dict(data.get("caches", {})),
            version=int(data.get("version", MANIFEST_VERSION)),
        )

    def render(self) -> str:
        """Human-readable breakdown (what ``fleet stats`` prints)."""
        return render_manifest(self)


def _utc_now_iso() -> str:
    return _datetime.datetime.now(_datetime.timezone.utc).isoformat(
        timespec="seconds")


def build_manifest(*, spec_hashes: Iterable[str], scenarios: int,
                   executed: int, skipped: int, shards: int,
                   workers: int, batch_size: int, chunk_coarse: int,
                   offline_gap: bool, elapsed_s: float,
                   snapshot: TelemetrySnapshot,
                   caches: Mapping | None = None,
                   created_at: str | None = None) -> RunManifest:
    """Assemble the run-level record from a merged snapshot.

    ``snapshot`` is the fold of every shard's telemetry plus the
    parent's own spans (store appends); ``caches`` carries the
    parent-side warm-vs-cold cache statistics (see
    :func:`repro.caches.cache_stats`).
    """
    rate = executed / elapsed_s if elapsed_s > 0 else 0.0
    return RunManifest(
        created_at=created_at if created_at is not None
        else _utc_now_iso(),
        fleet={
            "scenarios": int(scenarios),
            "executed": int(executed),
            "resumed": int(skipped),
            "shards": int(shards),
            "fleet_hash": fleet_content_hash(spec_hashes),
        },
        config={
            "workers": int(workers),
            "batch_size": int(batch_size),
            "chunk_coarse": int(chunk_coarse),
            "offline_gap": bool(offline_gap),
        },
        timing={
            "elapsed_s": float(elapsed_s),
            "scenarios_per_s": float(rate),
        },
        stages=snapshot.spans,
        counters=snapshot.counters,
        gauges=snapshot.gauges,
        process=snapshot.process,
        caches=dict(caches or {}),
    )


def stage_split(stages: Mapping[str, Mapping], top: int = 3) -> str:
    """One-line ``name share%`` summary of the largest top-level
    stages (for progress lines and run summaries)."""
    base = _share_base(stages)
    if base <= 0:
        return ""
    rows = sorted(
        ((name, stats["total_s"]) for name, stats in stages.items()
         if name not in _NESTED_UNDER and name != "shard"),
        key=lambda row: -row[1])
    return " | ".join(f"{name} {100 * total / base:.0f}%"
                      for name, total in rows[:top])


def _share_base(stages: Mapping[str, Mapping]) -> float:
    """Denominator for stage shares: total per-shard time when the
    ``shard`` span exists, else the sum of top-level stages."""
    shard = stages.get("shard")
    if shard is not None and shard.get("total_s", 0) > 0:
        return float(shard["total_s"])
    return sum(float(stats.get("total_s", 0.0))
               for name, stats in stages.items()
               if name not in _NESTED_UNDER)


def _stage_rows(stages: Mapping[str, Mapping]) -> list[tuple[str, dict]]:
    """Breakdown order: top-level stages by descending total, each
    followed by its nested spans (indented)."""
    children: dict[str, list[str]] = {}
    orphans = []
    for name, parent in _NESTED_UNDER.items():
        if name not in stages:
            continue
        if parent in stages:
            children.setdefault(parent, []).append(name)
        else:
            orphans.append(name)  # parent span absent: show top-level
    top = sorted((name for name in stages
                  if (name not in _NESTED_UNDER or name in orphans)
                  and name != "shard"),
                 key=lambda name: -float(stages[name]["total_s"]))
    rows: list[tuple[str, dict]] = []

    def emit(name: str, depth: int) -> None:
        rows.append(("  " * depth + name, dict(stages[name])))
        for child in sorted(children.get(name, []),
                            key=lambda c: -float(stages[c]["total_s"])):
            emit(child, depth + 1)

    for name in top:
        emit(name, 0)
    return rows


def render_manifest(manifest: RunManifest) -> str:
    """Fixed-width table: header facts, then the stage breakdown."""
    fleet, config, timing = manifest.fleet, manifest.config, \
        manifest.timing
    lines = [
        f"run {manifest.created_at} — "
        f"{fleet.get('scenarios', '?')} scenarios "
        f"({fleet.get('resumed', 0)} resumed), "
        f"{fleet.get('shards', '?')} shards, "
        f"workers={config.get('workers', '?')}",
        f"  elapsed {timing.get('elapsed_s', 0.0):.2f} s "
        f"({timing.get('scenarios_per_s', 0.0):.0f} scenarios/s), "
        f"batch_size={config.get('batch_size', '?')}, "
        f"chunk_coarse={config.get('chunk_coarse', '?')}"
        + (", offline_gap" if config.get("offline_gap") else ""),
    ]
    stages = manifest.stages
    if stages:
        base = _share_base(stages)
        lines.append(f"  {'stage':<22} {'total_s':>9} {'share':>7} "
                     f"{'count':>8} {'avg_ms':>9} {'max_ms':>9}")
        for label, stats in _stage_rows(stages):
            total = float(stats.get("total_s", 0.0))
            count = int(stats.get("count", 0))
            avg_ms = 1000 * total / count if count else 0.0
            share = 100 * total / base if base > 0 else 0.0
            lines.append(
                f"  {label:<22} {total:>9.3f} {share:>6.1f}% "
                f"{count:>8d} {avg_ms:>9.3f} "
                f"{1000 * float(stats.get('max_s', 0.0)):>9.3f}")
    else:
        lines.append("  (no stage spans recorded)")
    counters = manifest.counters
    if counters:
        parts = ", ".join(f"{name}={counters[name]:g}"
                          for name in sorted(counters))
        lines.append(f"  counters: {parts}")
    process = manifest.process
    if process.get("peak_rss_kb"):
        lines.append(f"  peak RSS {process['peak_rss_kb'] / 1024:.1f} "
                     f"MiB (max across processes)")
    return "\n".join(lines)
