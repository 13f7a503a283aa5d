"""Append-only on-disk result sink with seed-replicated aggregation.

A :class:`ResultStore` is a directory holding one JSON-lines file
(``results.jsonl``) plus a small ``meta.json``.  Writers only ever
*append* whole lines, so

* a crashed or interrupted sweep keeps every finished shard,
* concurrent readers see a consistent prefix,
* nothing is ever clobbered.  With the runner's default
  ``resume=True``, re-running a sweep into the same store *skips*
  scenarios whose spec hash is already recorded (interrupted sweeps
  resume cheaply); pass ``resume=False`` (CLI ``--no-resume``) to
  re-execute them and accumulate duplicate seed-replica rows
  instead — the pre-resumption behavior.

Each line is one scenario record as produced by
:mod:`repro.fleet.runner`, encoded by :func:`encode_record`, the one
encoder behind every append (results and both sidecars).  The runner's
shard workers call it on the records they build and ship the lines
back, so the parent's sink only writes them
(:meth:`ResultStore.append` takes encoded lines).

:meth:`ResultStore.sweep_table` folds the records back into the
familiar :class:`~repro.sim.sweep.SweepTable` — grouping by each
record's ``value`` (the sweep-axis value its spec carried) and
averaging metrics across the records that share it (the seed
replicas) — so fleet output plugs into the same tabulation and
monotonicity checks the figure experiments use.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.sim.sweep import SweepPoint, SweepTable
from repro.exceptions import StateError

#: Metrics shown by default in aggregated tables (fleet-record keys).
DEFAULT_TABLE_METRICS = ("time_avg_cost", "avg_delay_slots",
                         "worst_delay_slots", "availability",
                         "waste_mwh", "battery_ops")

_RESULTS_NAME = "results.jsonl"
_META_NAME = "meta.json"
_MANIFEST_NAME = "manifest.jsonl"
_ERRORS_NAME = "errors.jsonl"


def encode_record(record: Mapping) -> str:
    """One record as the store writes it: canonical (sorted-keys) JSON
    on one line."""
    return json.dumps(dict(record), sort_keys=True)


class ResultStore:
    """Directory-backed, append-only scenario-result sink."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._results_path = self.root / _RESULTS_NAME
        self._meta_path = self.root / _META_NAME
        self._manifest_path = self.root / _MANIFEST_NAME
        self._errors_path = self.root / _ERRORS_NAME
        if not self._meta_path.exists():
            self._meta_path.write_text(
                json.dumps({"format": "repro-fleet-results", "version": 1})
                + "\n", encoding="utf-8")

    @property
    def path(self) -> Path:
        """The JSONL file records land in."""
        return self._results_path

    @property
    def manifest_path(self) -> Path:
        """The run-manifest sidecar (one JSON line per telemetry run)."""
        return self._manifest_path

    @property
    def error_path(self) -> Path:
        """The quarantine sidecar (one JSON line per failed scenario)."""
        return self._errors_path

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    @staticmethod
    def _append_lines(path: Path, lines: Sequence[str]) -> None:
        """Append whole lines with the torn-write discipline.

        Lines are serialized by the caller before the file is opened,
        so a failure mid-serialization leaves the file untouched.  If
        a previous writer died mid-line (no trailing newline), the new
        batch starts on a fresh line so the torn fragment stays
        isolated instead of gluing onto the first new record.  One
        flush + fsync per batch bounds a crash's damage to the single
        torn tail line the readers already tolerate.
        """
        prefix = ""
        if path.exists() and path.stat().st_size > 0:
            with path.open("rb") as handle:
                handle.seek(-1, 2)
                if handle.read(1) != b"\n":
                    prefix = "\n"
        with path.open(  # replint: ignore[R004] the blessed append primitive itself
                "a", encoding="utf-8") as handle:
            handle.write(prefix + "\n".join(lines) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append(self, lines: Sequence[str]) -> int:
        """Append encoded records; returns how many were written.

        ``lines`` are :func:`encode_record` strings: the fleet runner's
        workers encode the records they build, and any other caller
        that holds records encodes them first.  See
        :meth:`_append_lines` for the crash-safety discipline.
        """
        if not lines:
            return 0
        self._append_lines(self._results_path, lines)
        return len(lines)

    def append_manifest(self, record: Mapping) -> None:
        """Append one run manifest to the ``manifest.jsonl`` sidecar.

        Same append-only, torn-write-tolerant discipline as record
        appends.
        """
        self._append_lines(self._manifest_path, [encode_record(record)])

    def append_errors(self, records: Iterable[Mapping]) -> int:
        """Append quarantine records to the ``errors.jsonl`` sidecar.

        Each record describes one scenario the runner gave up on:
        the spec (with its hash) plus a typed ``error`` object —
        ``{"type", "message", "site", "attempts"}``.  Same append-only
        discipline as results, so a crash mid-quarantine loses at most
        one torn line.
        """
        lines = [encode_record(record) for record in records]
        if not lines:
            return 0
        self._append_lines(self._errors_path, lines)
        return len(lines)

    @staticmethod
    def _read_jsonl(path: Path) -> Iterator[dict]:
        """Valid JSON lines of ``path`` in order; torn lines skipped."""
        if not path.exists():
            return
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write; complete lines are intact

    def manifests(self) -> list[dict]:
        """Stored run manifests in append order (torn lines skipped)."""
        return list(self._read_jsonl(self._manifest_path))

    def errors(self) -> list[dict]:
        """Stored quarantine records in append order (torn lines
        skipped).  A scenario may appear more than once if it was
        quarantined, retried via ``--retry-quarantined`` and
        quarantined again; later entries describe later attempts."""
        return list(self._read_jsonl(self._errors_path))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[dict]:
        """Valid records in append order; torn lines are skipped.

        A crashed writer can leave a partial line (a torn tail — or,
        once later appends started a fresh line after it, a torn line
        mid-file).  Every complete record is one intact line, so
        readers keep all of them and skip the fragments, like a
        write-ahead log.
        """
        yield from self._read_jsonl(self._results_path)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    # ------------------------------------------------------------------
    # Resumption index
    # ------------------------------------------------------------------

    @staticmethod
    def _record_hash(record: Mapping) -> str | None:
        """The record's scenario hash (recomputed for legacy records).

        Current writers stamp ``spec_hash`` directly; records from
        before the resumption layer carry only the embedded ``spec``
        dict, from which the same content hash is derived.
        """
        stored = record.get("spec_hash")
        if stored is not None:
            return str(stored)
        spec = record.get("spec")
        if spec is None:
            return None
        from repro.fleet.spec import spec_content_hash

        return spec_content_hash(spec)

    def latest_by_hash(self) -> dict[str, dict]:
        """Last stored record per scenario hash.

        The resumption index: :class:`~repro.fleet.runner.FleetRunner`
        skips any spec whose hash appears here and serves its stored
        record instead of re-executing.  Later records win (a re-run
        of the same scenario produces an identical record, so the
        choice is cosmetic).
        """
        index: dict[str, dict] = {}
        for record in self:
            key = self._record_hash(record)
            if key is not None:
                index[key] = record
        return index

    def spec_hashes(self) -> set[str]:
        """The set of scenario hashes with at least one stored record."""
        return set(self.latest_by_hash())

    def quarantined_by_hash(self) -> dict[str, dict]:
        """Last quarantine record per scenario hash.

        The runner's resume path treats a quarantined hash as "done"
        (re-running would re-fail) unless ``retry_quarantined`` asks
        for another attempt.  A hash that also has a *result* record —
        e.g. from a later successful retry — is not quarantined any
        more; callers resolve that by letting the results index win.
        """
        index: dict[str, dict] = {}
        for record in self.errors():
            key = self._record_hash(record)
            if key is not None:
                index[key] = record
        return index

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def metric_columns(self) -> list[str]:
        """Metric keys present in *every* stored record.

        Lets callers extend a default table with optional columns
        (e.g. ``offline_gap``) only when the whole store carries them
        — :meth:`sweep_table` raises on records that lack a requested
        metric, so partial columns should not be auto-selected.
        """
        common: set[str] | None = None
        order: list[str] = []
        for record in self:
            keys = record.get("metrics", {}).keys()
            for key in keys:
                if key not in order:
                    order.append(key)
            common = set(keys) if common is None else common & set(keys)
        if not common:
            return []
        return [key for key in order if key in common]

    def sweep_table(self, name: str = "fleet sweep",
                    metrics: Sequence[str] | None = None) -> SweepTable:
        """Seed-replicated aggregation into a :class:`SweepTable`.

        Records are grouped by their ``value`` field (first-seen
        order); each group's metric vectors are averaged over its
        records — one :class:`SweepPoint` per distinct value.
        """
        metric_names = tuple(metrics or DEFAULT_TABLE_METRICS)
        order: list[str] = []
        values: dict[str, object] = {}
        totals: dict[str, dict[str, float]] = {}
        counts: dict[str, int] = {}
        for record in self:
            key = json.dumps(record.get("value"), sort_keys=True)
            if key not in totals:
                order.append(key)
                values[key] = record.get("value")
                totals[key] = {metric: 0.0 for metric in metric_names}
                counts[key] = 0
            row = record.get("metrics", {})
            missing = [m for m in metric_names if m not in row]
            if missing:
                raise KeyError(
                    f"record for value {record.get('value')!r} lacks "
                    f"metrics {missing}")
            for metric in metric_names:
                totals[key][metric] += float(row[metric])
            counts[key] += 1
        if not order:
            raise StateError(f"result store {self.root} is empty")
        points = tuple(
            SweepPoint(
                value=values[key],
                metrics={metric: totals[key][metric] / counts[key]
                         for metric in metric_names},
                n_seeds=counts[key])
            for key in order)
        return SweepTable(name=name, points=points,
                          metric_names=metric_names)
