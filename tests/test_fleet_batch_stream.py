"""BatchTraceStream / TraceBlock: the vectorized fleet trace path."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.config.presets import paper_controller_config, paper_system_config
from repro.core.smartdpss import SmartDPSS
from repro import rng
from repro.exceptions import ConfigurationError, TraceError
from repro.fleet.engine import (
    ScenarioMetrics,
    StreamingBatchSimulator,
    StreamRunSpec,
)
from repro.fleet.stream import (
    DEFAULT_MATERIALIZE_CHUNK,
    ArrayBatchStream,
    ArrayTraceStream,
    BatchTraceStream,
    StreamingPaperTraces,
)
from repro.telemetry import Telemetry
from repro.traces.base import SERIES_FIELDS, TraceBlock
from repro.traces.solar import SolarModel

pytestmark = pytest.mark.fleet


def _streams(n_slots=96, batch=4, clip=None):
    return [StreamingPaperTraces(n_slots, seed=seed, clip_p_grid=clip)
            for seed in range(batch)]


class TestBatchTraceStream:
    def test_matches_per_scenario_cursors(self):
        streams = _streams(batch=5, clip=1.5)
        cursor = BatchTraceStream(streams).open()
        references = [stream.open() for stream in streams]
        for chunk in (17, 40, 39):
            block = cursor.read(chunk)
            windows = [ref.read(chunk) for ref in references]
            for name in SERIES_FIELDS:
                assert np.array_equal(
                    getattr(block, name),
                    np.stack([getattr(w, name) for w in windows])), name

    def test_full_horizon_read_matches_materialize(self):
        # One read past DEFAULT_MATERIALIZE_CHUNK, split per scenario,
        # equals the scalar chunked materialize() — including the clip
        # count materialize() sums over its windows.
        n_slots = 2 * DEFAULT_MATERIALIZE_CHUNK + 40
        streams = _streams(n_slots=n_slots, batch=3, clip=1.5)
        block = BatchTraceStream(streams).open().read(n_slots)
        for index, stream in enumerate(streams):
            reference = stream.materialize()
            scenario = block.scenario(index)
            for name in SERIES_FIELDS:
                assert np.array_equal(getattr(scenario, name),
                                      getattr(reference, name)), name
            assert reference.meta["peak_clip_slots"] > 0
            for key in ("seed", "peak_clip_slots"):
                assert scenario.meta[key] == reference.meta[key], key

    def test_heterogeneous_models_stack(self):
        streams = [StreamingPaperTraces(
            48, seed=seed,
            solar_model=SolarModel(capacity_mw=1.0 + seed))
            for seed in range(3)]
        block = BatchTraceStream(streams).open().read(48)
        singles = [stream.open().read(48) for stream in streams]
        for index, window in enumerate(singles):
            assert np.array_equal(block.renewable[index],
                                  window.renewable)

    def test_for_streams_rejects_non_kernel_sources(self):
        paper = _streams(batch=2)
        array = ArrayTraceStream(paper[0].materialize())
        assert BatchTraceStream.for_streams([paper[0], array]) is None
        assert BatchTraceStream.for_streams([]) is None
        assert BatchTraceStream.for_streams(paper) is not None

    def test_read_past_end_raises(self):
        cursor = BatchTraceStream(_streams(n_slots=24)).open()
        cursor.read(20)
        with pytest.raises(TraceError):
            cursor.read(5)

    def test_read_needs_positive_slots(self):
        cursor = BatchTraceStream(_streams()).open()
        with pytest.raises(ConfigurationError):
            cursor.read(0)

    def test_twins_share_one_lane(self):
        # Scenarios 0, 2 and 3 share one stream object: one kernel
        # lane, gathered back to a private row per scenario.
        streams = _streams(batch=2, clip=1.2)
        shared = [streams[0], streams[1], streams[0], streams[0]]
        batch = BatchTraceStream(shared)
        assert batch.lanes == tuple(streams)
        assert batch.seeds == (0, 1, 0, 0)
        cursor = batch.open()
        references = [stream.open() for stream in streams]
        for chunk in (17, 40, 39):
            block = cursor.read(chunk)
            windows = [ref.read(chunk) for ref in references]
            for name in SERIES_FIELDS:
                series = getattr(block, name)
                for row, lane in enumerate((0, 1, 0, 0)):
                    assert np.array_equal(series[row],
                                          getattr(windows[lane], name))
                assert not np.shares_memory(series[0], series[2]), name
            assert list(block.meta["peak_clip_slots"]) == [
                windows[lane].meta["peak_clip_slots"]
                for lane in (0, 1, 0, 0)]

    def test_equal_but_distinct_streams_get_own_lanes(self):
        streams = _streams(batch=2) + _streams(batch=1)
        batch = BatchTraceStream(streams)
        assert len(batch.lanes) == 3
        assert batch.rows is None

    def test_clip_meta_counts_per_scenario(self):
        streams = _streams(batch=3, clip=1.2)
        block = BatchTraceStream(streams).open().read(96)
        counts = block.meta["peak_clip_slots"]
        assert counts.shape == (3,)
        for index, stream in enumerate(streams):
            window = stream.open().read(96)
            assert counts[index] == window.meta["peak_clip_slots"]
            scenario = block.scenario(index)
            assert scenario.meta["peak_clip_slots"] \
                == window.meta["peak_clip_slots"]
            assert scenario.meta["seed"] == stream.seed


class TestTraceBlock:
    def _block(self, **overrides):
        data = {name: np.ones((2, 6)) for name in SERIES_FIELDS}
        data.update(overrides)
        return TraceBlock(**data)

    def test_shape_and_accessors(self):
        block = self._block()
        assert block.n_scenarios == 2
        assert block.n_slots == 6
        scenario = block.scenario(1)
        assert scenario.n_slots == 6

    def test_rejects_one_dimensional_series(self):
        with pytest.raises(TraceError):
            self._block(demand_ds=np.ones(6))

    def test_rejects_negative_and_nonfinite(self):
        bad = np.ones((2, 6))
        bad[1, 3] = -0.5
        with pytest.raises(TraceError):
            self._block(renewable=bad)
        bad = np.ones((2, 6))
        bad[0, 0] = np.nan
        with pytest.raises(TraceError):
            self._block(price_rt=bad)

    def test_coarse_prices_match_scenario_rows(self):
        hourly = np.arange(12.0).reshape(2, 6) + 1.0
        block = self._block(price_lt_hourly=hourly)
        coarse = block.coarse_prices(3)
        for index in range(2):
            assert np.array_equal(
                coarse[index], block.scenario(index).coarse_prices(3))
        with pytest.raises(Exception):
            block.coarse_prices(5)


class TestArrayBatchStream:
    @pytest.mark.parametrize("chunk", [1, 3, 96])
    def test_windows_match_array_cursors_with_twins(self, chunk):
        sets = [stream.materialize() for stream in _streams(batch=3)]
        arrays = [ArrayTraceStream(traces) for traces in sets]
        lanes = (0, 1, 0, 2, 0, 1)
        batch = ArrayBatchStream([arrays[lane] for lane in lanes])
        assert batch.lanes == tuple(arrays)
        cursor = batch.open()
        references = [arrays[lane].open() for lane in lanes]
        for _ in range(96 // chunk):
            block = cursor.read(chunk)
            windows = [reference.read(chunk) for reference in references]
            for name in SERIES_FIELDS:
                assert np.array_equal(
                    getattr(block, name),
                    np.stack([getattr(w, name) for w in windows])), name
            assert not np.shares_memory(block.demand_ds[0],
                                        block.demand_ds[2])
        with pytest.raises(TraceError):
            cursor.read(1)

    def test_materializes_each_lane_once(self):
        class Counting(ArrayTraceStream):
            calls = 0

            def materialize(self, chunk_slots=DEFAULT_MATERIALIZE_CHUNK):
                Counting.calls += 1
                return super().materialize(chunk_slots)

        shared = Counting(_streams(batch=1)[0].materialize())
        cursor = ArrayBatchStream([shared] * 4).open()
        assert Counting.calls == 1
        assert cursor.read(96).n_scenarios == 4

    def test_any_stream_kind(self):
        # A kernel-backed stream mixed with a materialized one: the
        # kernel source declines and every row still equals its own
        # cursor's window.
        kernel, other = _streams(batch=2)
        array = ArrayTraceStream(other.materialize())
        assert BatchTraceStream.for_streams([kernel, array]) is None
        block = ArrayBatchStream([kernel, array, kernel]).open().read(96)
        for row, stream in enumerate((kernel, array, kernel)):
            assert np.array_equal(block.price_rt[row],
                                  stream.open().read(96).price_rt)

    def test_read_needs_positive_slots(self):
        cursor = ArrayBatchStream(_streams(batch=1)).open()
        with pytest.raises(ConfigurationError):
            cursor.read(0)


class TestEngineWiring:
    def _runs(self, batch=3):
        system = paper_system_config(days=2, fine_slots_per_coarse=6)
        return [
            StreamRunSpec(system=system,
                          controller=SmartDPSS(paper_controller_config()),
                          stream=StreamingPaperTraces(
                              system.horizon_slots, seed=seed,
                              clip_p_grid=system.p_grid))
            for seed in range(batch)]

    def test_batch_and_scalar_paths_identical(self):
        """Kernel source == array source over the same windows."""
        batched = StreamingBatchSimulator(self._runs(), chunk_coarse=2)
        assert isinstance(batched._trace_source, BatchTraceStream)
        materialized = [
            StreamRunSpec(system=run.system,
                          controller=SmartDPSS(paper_controller_config()),
                          stream=ArrayTraceStream(run.stream.materialize()))
            for run in self._runs()]
        scalar = StreamingBatchSimulator(materialized, chunk_coarse=2)
        assert isinstance(scalar._trace_source, ArrayBatchStream)
        assert ScenarioMetrics.rows(batched.run()) \
            == ScenarioMetrics.rows(scalar.run())

    def test_batch_source_detection(self):
        engine = StreamingBatchSimulator(self._runs())
        assert isinstance(engine._trace_source, BatchTraceStream)

    def test_array_stream_falls_back_to_cursors(self):
        """A materialized stream falls back to the array batch cursor."""
        system = paper_system_config(days=1, fine_slots_per_coarse=6)
        stream = StreamingPaperTraces(system.horizon_slots, seed=0,
                                      clip_p_grid=system.p_grid)
        runs = [StreamRunSpec(
            system=system,
            controller=SmartDPSS(paper_controller_config()),
            stream=ArrayTraceStream(stream.materialize()))]
        engine = StreamingBatchSimulator(runs)
        assert isinstance(engine._trace_source, ArrayBatchStream)
        assert len(ScenarioMetrics.rows(engine.run())) == 1

    @pytest.mark.parametrize("materialize", [False, True])
    def test_shared_streams_match_private_streams(self, materialize):
        """Twins sharing one stream object (one lane) produce the
        records of twins holding equal private streams."""
        def runs(shared):
            system = paper_system_config(days=2, fine_slots_per_coarse=6)
            made = {}

            def stream(seed):
                if shared and seed in made:
                    return made[seed]
                source = StreamingPaperTraces(
                    system.horizon_slots, seed=seed,
                    clip_p_grid=system.p_grid)
                if materialize:
                    source = ArrayTraceStream(source.materialize())
                made[seed] = source
                return source

            return [StreamRunSpec(
                        system=system,
                        controller=SmartDPSS(paper_controller_config(v=v)),
                        stream=stream(seed))
                    for seed, v in ((0, 0.1), (1, 0.1), (0, 1.0),
                                    (0, 3.0))]

        engine = StreamingBatchSimulator(runs(shared=True), chunk_coarse=3)
        assert len(engine._trace_source.lanes) == 2
        private = StreamingBatchSimulator(runs(shared=False),
                                          chunk_coarse=3)
        assert len(private._trace_source.lanes) == 4
        assert ScenarioMetrics.rows(engine.run()) \
            == ScenarioMetrics.rows(private.run())


@pytest.mark.telemetry
class TestCursorOpenTiming:
    """Opening the batch cursor (the kernel lanes' RNG minting, or the
    array lanes' materialization) is trace work: it counts under the
    ``traces`` span, not in the shard's unattributed rest."""

    OPEN_S = 100.0

    @pytest.mark.parametrize("kind", ["kernel", "array"])
    def test_open_counts_under_traces(self, kind, monkeypatch):
        now = [0.0]

        class FakeClockTelemetry(Telemetry):
            clock = staticmethod(lambda: now[0])

        def slow(func):
            def wrapper(*args, **kwargs):
                now[0] += self.OPEN_S
                return func(*args, **kwargs)
            return wrapper

        system = paper_system_config(days=2, fine_slots_per_coarse=6)
        sources = [StreamingPaperTraces(system.horizon_slots, seed=seed,
                                        clip_p_grid=system.p_grid)
                   for seed in range(3)]
        if kind == "kernel":
            monkeypatch.setattr(rng, "substream_rngs_batch",
                                slow(rng.substream_rngs_batch))
        else:
            sources = [ArrayTraceStream(source.materialize())
                       for source in sources]
            monkeypatch.setattr(ArrayTraceStream, "materialize",
                                slow(ArrayTraceStream.materialize))

        def run(telemetry=None):
            runs = [StreamRunSpec(
                        system=system,
                        controller=SmartDPSS(paper_controller_config()),
                        stream=source) for source in sources]
            return StreamingBatchSimulator(
                runs, chunk_coarse=1, telemetry=telemetry).run()

        tele = FakeClockTelemetry()
        traced = run(tele)
        spans = tele.snapshot().spans
        n_chunks = system.num_coarse_slots
        opened = self.OPEN_S * (1 if kind == "kernel" else len(sources))
        assert spans["traces"] == {"total_s": opened, "count": n_chunks,
                                   "max_s": opened}
        for stage in ("slot_loop", "delay_replay", "collect"):
            assert spans[stage]["total_s"] == 0.0, stage
        assert ScenarioMetrics.rows(traced) \
            == ScenarioMetrics.rows(run())


class TestPlanningTailGuard:
    """A streamed window arriving without the T-slot planning tail must
    fail loudly: before the guard, the boundary lookback slice went
    negative and silently wrapped to the wrong (or empty) profile."""

    def _runs(self, batch=2):
        system = paper_system_config(days=2, fine_slots_per_coarse=6)
        return [
            StreamRunSpec(system=system,
                          controller=SmartDPSS(paper_controller_config()),
                          stream=StreamingPaperTraces(
                              system.horizon_slots, seed=seed,
                              clip_p_grid=system.p_grid))
            for seed in range(batch)]

    def test_dropped_tail_raises_instead_of_wrapping(self):
        from repro.exceptions import HorizonMismatchError

        class TailDropping(StreamingBatchSimulator):
            def _install_chunk(self, columns, price_lt, start, stop,
                               tail, price_lt_fine=None):
                return super()._install_chunk(
                    columns, price_lt, start, stop, None,
                    price_lt_fine=price_lt_fine)

        with pytest.raises(HorizonMismatchError, match="planning tail"):
            TailDropping(self._runs(), chunk_coarse=2).run()

    def test_normal_chunkings_unaffected(self):
        reference = StreamingBatchSimulator(self._runs(),
                                            chunk_coarse=8).run()
        for chunk_coarse in (1, 3):
            chunked = StreamingBatchSimulator(
                self._runs(), chunk_coarse=chunk_coarse).run()
            assert ScenarioMetrics.rows(chunked) \
                == ScenarioMetrics.rows(reference)


class TestStreamedMemory:
    """The streamed engine's central claim: its peak memory follows the
    chunk size, not the horizon.  It keeps one chunk of trace columns
    (plus the T-slot planning tail) and O(B) aggregates resident, so a
    4x longer horizon at the same chunk size barely moves the peak."""

    @staticmethod
    def _peak_mib(days, chunk_coarse, batch=16):
        """tracemalloc peak of building and running ``batch`` streamed
        SmartDPSS scenarios on a ``days``-day T=6 paper system."""
        def run():
            system = paper_system_config(days=days,
                                         fine_slots_per_coarse=6)
            runs = [StreamRunSpec(
                        system=system,
                        controller=SmartDPSS(paper_controller_config()),
                        stream=StreamingPaperTraces(
                            system.horizon_slots, seed=seed,
                            clip_p_grid=system.p_grid))
                    for seed in range(batch)]
            StreamingBatchSimulator(runs, chunk_coarse=chunk_coarse).run()

        gc.collect()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2 ** 20

    def test_peak_follows_chunk_not_horizon(self):
        short = self._peak_mib(days=4, chunk_coarse=4)
        long = self._peak_mib(days=16, chunk_coarse=4)
        assert long <= 1.25 * short, (
            f"16-day peak {long:.3f} MiB vs 4-day {short:.3f} MiB")
