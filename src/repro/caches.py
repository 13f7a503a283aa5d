"""Module-level cache registry and the ``clear_caches()`` test hook.

The library keeps a handful of module-level caches on hot paths, all
of them *bounded* so long mixed-configuration sweeps cannot grow them
without limit:

============================================  =======================
cache                                         bound
============================================  =======================
``repro.core.p4._STEP_CACHE``                 64 entries (dict, FIFO
(candidate step vectors per window length)    eviction)
``repro.fleet.spec`` builder caches           ``lru_cache(1024)`` each
(system / trace-model / controller configs)
``repro.traces.solar._capacity_factors``      ``lru_cache(512)``
(clear-sky geometry per window)
``repro.baselines.offline._cached_structure``  ``lru_cache(8)``
(compiled offline-LP sparsity per system)
============================================  =======================

:data:`_REGISTRY` names each once; :func:`clear_caches` and
:func:`cache_stats` both read it, so a new cache is registered by
adding one row there.

:func:`clear_caches` empties every one of them — the hook tests (and
long-lived services between sweeps) use to return the process to a
cold-cache state.  Entries are pure functions of their keys, so
clearing is always safe: the next use simply recomputes.
"""

from __future__ import annotations

import importlib
from typing import Iterator

#: ``(registry name, owning module, attribute)`` of every cache: a
#: plain dict (entry count only) or an ``lru_cache`` wrapper.
_REGISTRY = (
    ("p4.steps", "repro.core.p4", "_STEP_CACHE"),
    ("fleet.spec.system", "repro.fleet.spec", "_cached_system"),
    ("fleet.spec.models", "repro.fleet.spec", "_cached_models"),
    ("fleet.spec.smartdpss", "repro.fleet.spec",
     "_cached_smartdpss_config"),
    ("traces.solar.clear_sky", "repro.traces.solar", "_capacity_factors"),
    ("baselines.offline.structure", "repro.baselines.offline",
     "_cached_structure"),
)


def _caches() -> Iterator[tuple[str, object]]:
    """``(name, cache)`` for every registered cache, in table order."""
    for name, module, attribute in _REGISTRY:
        yield name, getattr(importlib.import_module(module), attribute)


def clear_caches() -> None:
    """Empty every registered module-level cache (see module docs)."""
    for _, cache in _caches():
        if isinstance(cache, dict):
            cache.clear()
        else:
            cache.cache_clear()


def cache_stats() -> dict[str, dict[str, int]]:
    """Per-cache warm-vs-cold statistics (what run manifests record).

    ``lru_cache``-backed caches report ``hits`` / ``misses`` /
    ``entries`` from their own counters; the dict caches (no hit
    accounting) report ``entries`` only.  A fleet run samples this
    before and after execution, so the manifest shows how warm the
    process started (``hits`` already nonzero → a reused worker pool
    or an earlier in-process sweep) and how much the run itself
    reused.
    """
    stats: dict[str, dict[str, int]] = {}
    for name, cache in _caches():
        if isinstance(cache, dict):
            stats[name] = {"entries": len(cache)}
        else:
            info = cache.cache_info()
            stats[name] = {"hits": info.hits, "misses": info.misses,
                           "entries": info.currsize}
    return stats
