"""Probes of the batch engine that only tests read.

The production engine keeps O(B) result state: a
:class:`~repro.fleet.engine.StreamingAggregator` sums each series and
replays the delay ledger chunk by chunk.  To compare it with the
scalar :class:`~repro.sim.engine.Simulator` slot by slot, tests need
more:

* :class:`BatchRecorder` — plugged into the same slot loop
  (``StreamingBatchSimulator._stream(BatchRecorder(B, n_slots))``), it
  keeps every per-slot series, as the scalar
  :class:`~repro.sim.recorder.Recorder` holds them;
* :func:`replay_delay_stats` — one scenario's FIFO delay ledger,
  histogram included, rebuilt from a whole recorded horizon through
  the scalar engine's :class:`~repro.workload.queue.BacklogQueue`;
* :func:`metrics_from_result` — a scalar result's record, computed by
  feeding its series through a batch-of-one aggregator and the batch
  engine's fold, so bit-identical series give bit-identical metrics.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.fleet.engine import (
    _SUMMED,
    ScenarioMetrics,
    StreamingAggregator,
    _fold,
)
from repro.sim.recorder import SERIES_NAMES
from repro.sim.results import SimulationResult
from repro.workload.queue import BacklogQueue, DelayStats


class BatchRecorder:
    """Per-slot series for ``B`` scenarios: one ``(B, n_slots)`` array
    per quantity in :data:`~repro.sim.recorder.SERIES_NAMES`.

    Plug it into ``StreamingBatchSimulator._stream(recorder)`` to read
    every series slot by slot, as the scalar
    :class:`~repro.sim.recorder.Recorder` holds them.  It keeps no
    delay ledger (:meth:`flush_delays` is a no-op);
    :func:`replay_delay_stats` rebuilds one from the recorded
    ``served_dt`` series.
    """

    def __init__(self, n_scenarios: int, n_slots: int):
        if n_scenarios < 1 or n_slots < 1:
            raise ConfigurationError(
                f"need n_scenarios >= 1 and n_slots >= 1, got "
                f"({n_scenarios}, {n_slots})")
        self.n_scenarios = n_scenarios
        self.n_slots = n_slots
        self._series = {name: np.zeros((n_scenarios, n_slots))
                        for name in SERIES_NAMES}
        self._cursor = 0

    @property
    def cursor(self) -> int:
        """Number of slots recorded so far."""
        return self._cursor

    def record(self, **values: np.ndarray) -> None:
        """Record one slot for every scenario at once."""
        if self._cursor >= self.n_slots:
            raise IndexError(f"recorder full ({self.n_slots} slots)")
        for name, value in values.items():
            if name not in self._series:
                raise KeyError(f"unknown series {name!r}")
            self._series[name][:, self._cursor] = value
        self._cursor += 1

    def series(self, name: str) -> np.ndarray:
        """One ``(B, cursor)`` series (read-only view)."""
        if name not in self._series:
            raise KeyError(f"unknown series {name!r}")
        array = self._series[name][:, :self._cursor]
        array.setflags(write=False)
        return array

    def flush_delays(self, start_slot: int,
                     arrivals_dt: np.ndarray) -> None:
        """Nothing to replay: the full series stay recorded."""

    def scenario_dict(self, index: int) -> dict[str, np.ndarray]:
        """All series for one scenario, in scalar-Recorder layout."""
        out = {}
        for name in SERIES_NAMES:
            row = self._series[name][index, :self._cursor].copy()
            row.setflags(write=False)
            out[name] = row
        return out


def replay_delay_stats(served_dt: np.ndarray,
                       arrivals_dt: np.ndarray) -> DelayStats:
    """Reconstruct one scenario's FIFO delay ledger post-run.

    One full-horizon pass through the scalar engine's ledger,
    :class:`~repro.workload.queue.BacklogQueue`, which also keeps the
    per-delay histogram the engine's
    :class:`~repro.sim.vecstate.DelayReplay` leaves out (see its
    docstring for the exactness contract the two share).
    """
    queue = BacklogQueue()
    for slot, (served, arrivals) in enumerate(
            zip(served_dt.tolist(), arrivals_dt.tolist())):
        queue.step(served, arrivals, slot)
    return queue.stats


def metrics_from_result(result: SimulationResult,
                        seed: int | None = None) -> ScenarioMetrics:
    """The batch engine's record, computed from a scalar result.

    Feeds the recorded series through a batch-of-one
    :class:`~repro.fleet.engine.StreamingAggregator` slot by slot and
    then through the batch engine's fold with the result's delay
    ledger, so every sum uses the identical accumulation order as the
    batch engine.
    """
    series = result.series
    aggregator = StreamingAggregator(1)
    columns = {name: series[name]
               for name in (*_SUMMED, "backlog", "battery_level")}
    for slot in range(result.n_slots):
        aggregator.record(**{name: column[slot:slot + 1]
                             for name, column in columns.items()})
    block = _fold(
        aggregator, [result.delay_stats],
        controller_name=[result.controller_name],
        n_slots=result.n_slots,
        battery_ops=np.array([result.battery_operations]),
        lt_energy=np.array([result.lt_energy]),
        rt_energy=np.array([result.rt_energy]), seed=[seed])
    return ScenarioMetrics(**ScenarioMetrics.rows(block)[0])
