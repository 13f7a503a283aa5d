"""Uniform observation noise on a whole trace set (Fig. 9 substrate).

The paper's ±``rel_error`` model applied to every series of a
:class:`~repro.traces.base.TraceSet` at once, through the whole-horizon
reference :meth:`~repro.fleet.observe.ObservationSpec.observed_traces`
(what the scalar ``Simulator`` observes).
"""

import numpy as np
import pytest

from repro.fleet.observe import ObservationSpec, UniformNoise
from tests.conftest import constant_traces
from repro.exceptions import ConfigurationError

pytestmark = pytest.mark.noise


def uniform_observation(traces, rel_error, seed, price_cap=None):
    return ObservationSpec(UniformNoise(rel_error), seed,
                           price_cap=price_cap).observed_traces(traces)


class TestUniformNoise:
    def test_zero_error_is_identity(self):
        traces = constant_traces(24)
        observed = uniform_observation(traces, 0.0, 1)
        assert np.allclose(observed.demand_ds, traces.demand_ds)

    def test_bounded_multiplicative(self):
        traces = constant_traces(500, demand_ds=1.0)
        observed = uniform_observation(traces, 0.5, 2)
        ratio = observed.demand_ds / traces.demand_ds
        assert np.all(ratio >= 0.5 - 1e-12)
        assert np.all(ratio <= 1.5 + 1e-12)

    def test_all_series_perturbed(self):
        traces = constant_traces(200)
        observed = uniform_observation(traces, 0.5, 3)
        for name in ("demand_ds", "demand_dt", "renewable",
                     "price_rt", "price_lt_hourly"):
            assert not np.array_equal(getattr(observed, name),
                                      getattr(traces, name))

    def test_independent_noise_per_series(self):
        traces = constant_traces(200)
        observed = uniform_observation(traces, 0.5, 4)
        ratio_ds = observed.demand_ds / traces.demand_ds
        ratio_dt = observed.demand_dt / traces.demand_dt
        assert not np.allclose(ratio_ds, ratio_dt)

    def test_price_cap_applied(self):
        traces = constant_traces(500, price_rt=150.0)
        observed = uniform_observation(traces, 0.5, 5, price_cap=200.0)
        assert np.all(observed.price_rt <= 200.0)

    def test_mean_roughly_unbiased(self):
        traces = constant_traces(5000, demand_ds=1.0)
        observed = uniform_observation(traces, 0.5, 6)
        assert observed.demand_ds.mean() == pytest.approx(1.0,
                                                          abs=0.02)

    def test_invalid_error_rejected(self):
        traces = constant_traces(4)
        with pytest.raises(ConfigurationError):
            uniform_observation(traces, -0.1, 7)
        with pytest.raises(ConfigurationError):
            uniform_observation(traces, 1.0, 7)

    def test_meta_records_error(self):
        observed = uniform_observation(constant_traces(4), 0.3, 8)
        assert observed.meta["observation_rel_error"] == 0.3
