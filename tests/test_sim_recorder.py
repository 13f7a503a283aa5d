"""Per-slot series recorder."""

import numpy as np
import pytest

from repro.sim.recorder import SERIES_NAMES, Recorder
from repro.exceptions import ConfigurationError


class TestRecorder:
    def test_records_in_order(self):
        recorder = Recorder(3)
        recorder.record(cost_total=1.0)
        recorder.record(cost_total=2.0)
        assert recorder.series("cost_total").size == 2
        assert np.allclose(recorder.series("cost_total"), [1.0, 2.0])

    def test_missing_keys_default_zero(self):
        recorder = Recorder(1)
        recorder.record(grt=0.5)
        assert recorder.series("waste")[0] == 0.0

    def test_unknown_key_rejected(self):
        recorder = Recorder(1)
        with pytest.raises(KeyError):
            recorder.record(unknown_series=1.0)

    def test_overflow_rejected(self):
        recorder = Recorder(1)
        recorder.record()
        with pytest.raises(IndexError):
            recorder.record()

    def test_series_truncated_to_cursor(self):
        recorder = Recorder(5)
        recorder.record(cost_total=1.0)
        assert recorder.series("cost_total").size == 1

    def test_series_read_only(self):
        recorder = Recorder(2)
        recorder.record(cost_total=1.0)
        with pytest.raises(ValueError):
            recorder.series("cost_total")[0] = 9.0

    def test_as_dict_covers_all_series(self):
        recorder = Recorder(1)
        recorder.record()
        assert set(recorder.as_dict()) == set(SERIES_NAMES)

    def test_unknown_series_lookup_rejected(self):
        with pytest.raises(KeyError):
            Recorder(1).series("nope")

    def test_zero_slots_rejected(self):
        with pytest.raises(ConfigurationError):
            Recorder(0)
