"""Bounded module-level caches and the ``clear_caches()`` hook."""

from __future__ import annotations

import numpy as np

from repro import clear_caches
from repro.caches import cache_sizes, cache_stats


def test_step_cache_bounded():
    from repro.core import p4

    p4._STEP_CACHE.clear()
    for n in range(1, 4 * p4._STEP_CACHE_MAX):
        p4._steps(n)
    assert len(p4._STEP_CACHE) <= p4._STEP_CACHE_MAX
    assert np.array_equal(p4._steps(3), np.arange(3.0))


def test_clear_caches_empties_every_registered_cache():
    from repro.config.presets import paper_system_config
    from repro.core import p4
    from repro.fleet.spec import ScenarioSpec
    from repro.traces.library import make_paper_traces

    # Populate each cache.
    p4._steps(7)
    ScenarioSpec(controller={"kind": "smartdpss", "v": 1.25}) \
        .build_system()
    make_paper_traces(paper_system_config(days=1), seed=5)
    sizes = cache_sizes()
    assert sizes["p4.steps"] >= 1
    assert sizes["fleet.spec.system"] >= 1
    assert sizes["traces.solar.clear_sky"] >= 1

    clear_caches()
    assert all(size == 0 for size in cache_sizes().values())


def test_cache_stats_matches_sizes_and_counts_lru_hits():
    from repro.core import p4
    from repro.fleet.spec import ScenarioSpec

    clear_caches()
    spec = ScenarioSpec(controller={"kind": "smartdpss", "v": 1.25})
    spec.build_system()
    spec.build_system()
    p4._steps(7)
    stats = cache_stats()
    sizes = cache_sizes()
    assert set(stats) == set(sizes)
    assert {name: entry["entries"] for name, entry in stats.items()} \
        == sizes
    # p4.steps is a plain dict; every other registered cache is an
    # lru_cache and reports its own hit/miss counters.
    assert set(stats["p4.steps"]) == {"entries"}
    for name, entry in stats.items():
        if name != "p4.steps":
            assert set(entry) == {"hits", "misses", "entries"}, name
    system = stats["fleet.spec.system"]
    assert system["misses"] >= 1 and system["hits"] >= 1
