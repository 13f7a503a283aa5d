"""BatchTraceStream / TraceBlock: the vectorized fleet trace path."""

import numpy as np
import pytest

from repro.config.presets import paper_controller_config, paper_system_config
from repro.core.smartdpss import SmartDPSS
from repro.exceptions import ConfigurationError, TraceError
from repro.fleet.engine import StreamingBatchSimulator, StreamRunSpec
from repro.fleet.stream import (
    DEFAULT_MATERIALIZE_CHUNK,
    ArrayTraceStream,
    BatchTraceStream,
    StreamingPaperTraces,
)
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
        """Kernel cursor == per-scenario cursors over the same windows."""
        batched = StreamingBatchSimulator(self._runs(),
                                          chunk_coarse=2).run()
        materialized = [
            StreamRunSpec(system=run.system,
                          controller=SmartDPSS(paper_controller_config()),
                          stream=ArrayTraceStream(run.stream.materialize()))
            for run in self._runs()]
        scalar = StreamingBatchSimulator(materialized, chunk_coarse=2)
        assert scalar._batch_source is None
        assert [m.as_dict() for m in batched] \
            == [m.as_dict() for m in scalar.run()]

    def test_batch_source_detection(self):
        engine = StreamingBatchSimulator(self._runs())
        assert engine._batch_source is not None

    def test_array_stream_falls_back_to_cursors(self):
        system = paper_system_config(days=1, fine_slots_per_coarse=6)
        stream = StreamingPaperTraces(system.horizon_slots, seed=0,
                                      clip_p_grid=system.p_grid)
        runs = [StreamRunSpec(
            system=system,
            controller=SmartDPSS(paper_controller_config()),
            stream=ArrayTraceStream(stream.materialize()))]
        engine = StreamingBatchSimulator(runs)
        assert engine._batch_source is None
        assert len(engine.run()) == 1


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
            assert [m.as_dict() for m in chunked] \
                == [m.as_dict() for m in reference]
