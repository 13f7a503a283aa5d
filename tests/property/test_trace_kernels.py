"""Vectorized trace kernels are bit-identical to their scalar loops.

Every kernel in :mod:`repro.traces` (demand AR(1) + compound Poisson,
solar Markov clouds + AR(1), price AR(1) + spikes + forward curve) must
reproduce its per-slot reference (:mod:`oracles.stream_traces`)
*exactly* — ``np.array_equal``, not ``allclose`` — for random model
parameters, seeds, batch compositions and chunkings, including the
carry-state handoff across mid-horizon chunk boundaries.  The kernels
are the ``stream`` family's only generator, so this is the gate on
every trace window :class:`~repro.fleet.stream.BatchTraceStream`
serves.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from oracles.stream_traces import (
    DemandChunkState,
    PriceChunkState,
    SolarChunkState,
    delay_sensitive_stream_chunk,
    delay_tolerant_stream_chunk,
    forward_curve_chunk,
    generate_chunk,
    real_time_stream_chunk,
)
from repro.rng import RngFactory
from repro.traces.demand import DemandModel, DemandTraceKernel
from repro.traces.prices import PriceModel, PriceTraceKernel
from repro.traces.solar import SolarModel, SolarTraceKernel

N_SLOTS = 120

seeds = st.integers(min_value=0, max_value=2 ** 31)
seed_lists = st.lists(seeds, min_size=1, max_size=4, unique=True)

#: Random chunk splittings of the horizon, for the reference side and
#: the kernel side independently — invariance demands any-vs-any.
chunkings = st.lists(st.integers(min_value=1, max_value=N_SLOTS),
                     min_size=1, max_size=6).map(
    lambda sizes: _normalize_chunks(sizes))


def _normalize_chunks(sizes):
    """Trim a random size list into an exact partition of the horizon."""
    chunks, total = [], 0
    for size in sizes:
        size = min(size, N_SLOTS - total)
        if size <= 0:
            break
        chunks.append(size)
        total += size
    if total < N_SLOTS:
        chunks.append(N_SLOTS - total)
    return chunks


demand_models = st.builds(
    DemandModel,
    noise_rho=st.floats(0.0, 0.95),
    noise_sigma=st.floats(0.0, 0.3),
    batch_jobs_per_hour=st.floats(0.0, 20.0),
    batch_job_energy_mwh=st.sampled_from([0.0, 0.05, 0.12, 0.4]),
    batch_sigma=st.floats(0.0, 1.5),
    d_dt_max=st.floats(0.1, 3.0),
    weekend_factor=st.floats(0.3, 1.0),
    start_weekday=st.integers(0, 6),
    slot_hours=st.sampled_from([0.25, 0.5, 1.0]),
)

solar_models = st.builds(
    SolarModel,
    capacity_mw=st.floats(0.0, 8.0),
    latitude_deg=st.floats(-60.0, 60.0),
    start_day_of_year=st.integers(1, 365),
    cloud_persistence=st.floats(0.05, 0.95),
    noise_rho=st.floats(0.0, 0.9),
    noise_sigma=st.floats(0.0, 0.4),
    slot_hours=st.sampled_from([0.5, 1.0]),
)

price_models = st.builds(
    PriceModel,
    mean_price=st.floats(20.0, 90.0),
    noise_rho=st.floats(0.0, 0.95),
    noise_sigma=st.floats(0.0, 0.5),
    spike_probability=st.floats(0.0, 0.5),
    spike_scale=st.floats(1.0, 4.0),
    forward_discount=st.floats(0.5, 1.0),
    forward_noise_sigma=st.floats(0.0, 0.2),
    weekend_factor=st.floats(0.3, 1.0),
    start_weekday=st.integers(0, 6),
    slot_hours=st.sampled_from([0.5, 1.0]),
)


def _rngs(name, seed_values):
    return [RngFactory(seed).stream(name) for seed in seed_values]


# ----------------------------------------------------------------------
# Demand
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(models=st.lists(demand_models, min_size=1, max_size=4),
       seed_values=seed_lists, ref_chunks=chunkings,
       kernel_chunks=chunkings)
def test_demand_sensitive_kernel_bit_identical(
        models, seed_values, ref_chunks, kernel_chunks):
    batch = min(len(models), len(seed_values))
    models, seed_values = models[:batch], seed_values[:batch]

    reference = np.empty((batch, N_SLOTS))
    final_levels = []
    for row, (model, seed) in enumerate(zip(models, seed_values)):
        rng = RngFactory(seed).stream("dds")
        state, start = DemandChunkState(), 0
        for chunk in ref_chunks:
            reference[row, start:start + chunk] = \
                delay_sensitive_stream_chunk(
                    model, start, chunk, rng, state)
            start += chunk
        final_levels.append(state.log_noise)

    kernel = DemandTraceKernel(models)
    rngs = _rngs("dds", seed_values)
    level, start = np.zeros(batch), 0
    blocks = []
    for chunk in kernel_chunks:
        block, level = kernel.sensitive_block(start, chunk, rngs, level)
        blocks.append(block)
        start += chunk
    assert np.array_equal(np.concatenate(blocks, axis=1), reference)
    assert np.array_equal(level, np.array(final_levels))


@settings(max_examples=40, deadline=None)
@given(models=st.lists(demand_models, min_size=1, max_size=4),
       seed_values=seed_lists, ref_chunks=chunkings,
       kernel_chunks=chunkings)
def test_demand_tolerant_kernel_bit_identical(
        models, seed_values, ref_chunks, kernel_chunks):
    batch = min(len(models), len(seed_values))
    models, seed_values = models[:batch], seed_values[:batch]

    reference = np.empty((batch, N_SLOTS))
    for row, (model, seed) in enumerate(zip(models, seed_values)):
        count_rng = RngFactory(seed).stream("counts")
        size_rng = RngFactory(seed).stream("sizes")
        start = 0
        for chunk in ref_chunks:
            reference[row, start:start + chunk] = \
                delay_tolerant_stream_chunk(
                    model, start, chunk, count_rng, size_rng)
            start += chunk

    kernel = DemandTraceKernel(models)
    count_rngs = _rngs("counts", seed_values)
    size_rngs = _rngs("sizes", seed_values)
    start, blocks = 0, []
    for chunk in kernel_chunks:
        blocks.append(kernel.tolerant_block(start, chunk, count_rngs,
                                            size_rngs))
        start += chunk
    assert np.array_equal(np.concatenate(blocks, axis=1), reference)


# ----------------------------------------------------------------------
# Solar
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(models=st.lists(solar_models, min_size=1, max_size=4),
       seed_values=seed_lists, ref_chunks=chunkings,
       kernel_chunks=chunkings)
def test_solar_kernel_bit_identical(models, seed_values, ref_chunks,
                                    kernel_chunks):
    batch = min(len(models), len(seed_values))
    models, seed_values = models[:batch], seed_values[:batch]

    reference = np.empty((batch, N_SLOTS))
    final_states = []
    for row, (model, seed) in enumerate(zip(models, seed_values)):
        factory = RngFactory(seed)
        cloud_rng = factory.stream("clouds")
        jitter_rng = factory.stream("jitter")
        noise_rng = factory.stream("noise")
        state, start = SolarChunkState(), 0
        for chunk in ref_chunks:
            reference[row, start:start + chunk] = generate_chunk(
                model, start, chunk, cloud_rng, jitter_rng, noise_rng,
                state)
            start += chunk
        final_states.append((state.cloud_state, state.noise_level))

    kernel = SolarTraceKernel(models)
    cloud_rngs = _rngs("clouds", seed_values)
    jitter_rngs = _rngs("jitter", seed_values)
    noise_rngs = _rngs("noise", seed_values)
    cloud_state = np.full(batch, -1, dtype=np.int64)
    level, start, blocks = np.zeros(batch), 0, []
    for chunk in kernel_chunks:
        block, cloud_state, level = kernel.block(
            start, chunk, cloud_rngs, jitter_rngs, noise_rngs,
            cloud_state, level)
        blocks.append(block)
        start += chunk
    assert np.array_equal(np.concatenate(blocks, axis=1), reference)
    assert np.array_equal(cloud_state,
                          np.array([s for s, _ in final_states]))
    assert np.array_equal(level, np.array([l for _, l in final_states]))


# ----------------------------------------------------------------------
# Prices
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(models=st.lists(price_models, min_size=1, max_size=4),
       seed_values=seed_lists, ref_chunks=chunkings,
       kernel_chunks=chunkings)
def test_price_kernels_bit_identical(models, seed_values, ref_chunks,
                                     kernel_chunks):
    batch = min(len(models), len(seed_values))
    models, seed_values = models[:batch], seed_values[:batch]

    ref_rt = np.empty((batch, N_SLOTS))
    ref_fwd = np.empty((batch, N_SLOTS))
    final_levels = []
    for row, (model, seed) in enumerate(zip(models, seed_values)):
        factory = RngFactory(seed)
        rt_rng = factory.stream("rt")
        spike_rng = factory.stream("spikes")
        fwd_rng = factory.stream("fwd")
        state, start = PriceChunkState(), 0
        for chunk in ref_chunks:
            ref_rt[row, start:start + chunk] = \
                real_time_stream_chunk(model, start, chunk, rt_rng,
                                       spike_rng, state)
            ref_fwd[row, start:start + chunk] = \
                forward_curve_chunk(model, start, chunk, fwd_rng)
            start += chunk
        final_levels.append(state.log_noise)

    kernel = PriceTraceKernel(models)
    rt_rngs = _rngs("rt", seed_values)
    spike_rngs = _rngs("spikes", seed_values)
    fwd_rngs = _rngs("fwd", seed_values)
    level, start = np.zeros(batch), 0
    rt_blocks, fwd_blocks = [], []
    for chunk in kernel_chunks:
        block, level = kernel.real_time_block(start, chunk, rt_rngs,
                                              spike_rngs, level)
        rt_blocks.append(block)
        fwd_blocks.append(kernel.forward_block(start, chunk, fwd_rngs))
        start += chunk
    assert np.array_equal(np.concatenate(rt_blocks, axis=1), ref_rt)
    assert np.array_equal(np.concatenate(fwd_blocks, axis=1), ref_fwd)
    assert np.array_equal(level, np.array(final_levels))
