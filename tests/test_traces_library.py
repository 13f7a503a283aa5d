"""Assembled paper trace bundle."""

import numpy as np
import pytest

from repro.config.presets import paper_system_config
from repro.traces.library import make_paper_traces
from repro.traces.wind import WindModel
from repro.exceptions import ConfigurationError


class TestMakePaperTraces:
    def test_default_horizon_matches_system(self):
        system = paper_system_config()
        traces = make_paper_traces(system)
        assert traces.n_slots == system.horizon_slots

    def test_reproducible(self):
        system = paper_system_config(days=4)
        a = make_paper_traces(system, seed=5)
        b = make_paper_traces(system, seed=5)
        assert np.array_equal(a.demand_ds, b.demand_ds)
        assert np.array_equal(a.price_rt, b.price_rt)
        assert np.array_equal(a.renewable, b.renewable)

    def test_non_int_seed_rejected(self):
        # A float seed would name other substreams ("5.0:solar").
        system = paper_system_config(days=1)
        for seed in ("not-a-seed", 5.0):
            with pytest.raises(TypeError, match="seed must be an int"):
                make_paper_traces(system, seed=seed)

    def test_numpy_integer_seed_matches_int(self):
        system = paper_system_config(days=1)
        a = make_paper_traces(system, seed=np.int64(5))
        b = make_paper_traces(system, seed=5)
        assert np.array_equal(a.price_rt, b.price_rt)

    def test_seed_changes_traces(self):
        system = paper_system_config(days=4)
        a = make_paper_traces(system, seed=5)
        b = make_paper_traces(system, seed=6)
        assert not np.array_equal(a.demand_ds, b.demand_ds)

    def test_peaks_clipped_at_pgrid(self):
        system = paper_system_config()
        traces = make_paper_traces(system, seed=1)
        assert np.all(traces.demand_total <= system.p_grid + 1e-9)

    def test_clipping_can_be_disabled(self):
        system = paper_system_config(days=10)
        raw = make_paper_traces(system, seed=1, clip_peaks=False)
        assert raw.demand_total.max() > system.p_grid

    def test_ddt_respects_cap(self):
        system = paper_system_config()
        traces = make_paper_traces(system, seed=2)
        assert np.all(traces.demand_dt <= system.d_dt_max + 1e-9)

    def test_prices_below_cap(self):
        system = paper_system_config()
        traces = make_paper_traces(system, seed=3)
        assert np.all(traces.price_rt <= system.p_max)
        assert np.all(traces.price_lt_hourly <= system.p_max)

    def test_lt_market_cheaper_on_average(self):
        system = paper_system_config()
        traces = make_paper_traces(system, seed=4)
        assert traces.price_lt_hourly.mean() < traces.price_rt.mean()

    def test_wind_adds_renewable(self):
        system = paper_system_config(days=7)
        solar_only = make_paper_traces(system, seed=5)
        with_wind = make_paper_traces(
            system, seed=5, wind_model=WindModel(capacity_mw=1.0))
        assert with_wind.renewable.sum() > solar_only.renewable.sum()
        # Demand unchanged: wind only touches the renewable stream.
        assert np.array_equal(with_wind.demand_ds,
                              solar_only.demand_ds)

    def test_n_slots_override(self):
        system = paper_system_config()
        traces = make_paper_traces(system, n_slots=48)
        assert traces.n_slots == 48

    def test_invalid_n_slots_rejected(self):
        with pytest.raises(ConfigurationError):
            make_paper_traces(paper_system_config(), n_slots=0)

    def test_default_system_when_omitted(self):
        traces = make_paper_traces(seed=9)
        assert traces.n_slots == 744

    def test_meta_records_seed(self):
        traces = make_paper_traces(paper_system_config(days=4), seed=17)
        assert traces.meta["seed"] == 17
