"""One-call assembly of the paper's trace bundle.

:func:`make_paper_traces` reproduces the evaluation inputs of Section
VI-A: one month (31 days of one-hour slots) of Google-cluster-like
demand split into delay-sensitive and delay-tolerant components,
MIDC-like solar production, and NYISO-like two-market prices — with
demand peaks clipped at ``Pgrid`` exactly as the paper describes.
Everything is driven by one root seed through independent named
substreams (:func:`repro.rng.make_rng`), so the bundle is
bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.config.system import SystemConfig
from repro.rng import DEFAULT_SEED, make_rng
from repro.traces.base import TraceSet
from repro.traces.demand import DemandModel, GoogleClusterDemandGenerator
from repro.traces.prices import NyisoLikePriceGenerator, PriceModel
from repro.traces.scaling import clip_demand_peaks
from repro.traces.solar import MidcLikeSolarGenerator, SolarModel
from repro.traces.wind import WindModel, WindTraceGenerator
from repro.exceptions import ConfigurationError


def make_paper_traces(system: SystemConfig | None = None,
                      seed: int = DEFAULT_SEED,
                      n_slots: int | None = None,
                      solar_model: SolarModel | None = None,
                      price_model: PriceModel | None = None,
                      demand_model: DemandModel | None = None,
                      wind_model: WindModel | None = None,
                      clip_peaks: bool = True) -> TraceSet:
    """Build the full input bundle for one simulation horizon.

    Parameters
    ----------
    system:
        Determines the horizon length, the price cap fed to the price
        model, the grid cap used for peak clipping and the
        delay-tolerant arrival cap.  Defaults to the paper system.
    seed:
        Root seed, an ``int``: substreams named ``solar`` / ``prices``
        / ``demand`` / ``wind`` derive from it (any other type raises
        :class:`TypeError`, since a float's text would name other
        substreams).
    n_slots:
        Override the horizon (defaults to the system's).
    solar_model / price_model / demand_model:
        Component model overrides for custom scenarios.
    wind_model:
        When given, wind production is *added* to solar in the
        aggregate renewable series (the paper's system model carries a
        single ``r(τ)``).
    clip_peaks:
        Apply the paper's ``Pgrid`` peak clipping (Section VI-A).
    """
    if system is None:
        from repro.config.presets import paper_system_config
        system = paper_system_config()
    slots = system.horizon_slots if n_slots is None else int(n_slots)
    if slots < 1:
        raise ConfigurationError(f"horizon must have >= 1 slot, got {slots}")

    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an int, got {type(seed).__name__}")
    root = int(seed)

    if price_model is None:
        price_model = PriceModel(price_cap=system.p_max,
                                 slot_hours=system.slot_hours)
    if demand_model is None:
        demand_model = DemandModel(d_dt_max=system.d_dt_max,
                                   slot_hours=system.slot_hours)
    if solar_model is None:
        solar_model = SolarModel(slot_hours=system.slot_hours)

    demand_ds, demand_dt = GoogleClusterDemandGenerator(demand_model).generate(
        slots, make_rng(root, "demand"))
    renewable = MidcLikeSolarGenerator(solar_model).generate(
        slots, make_rng(root, "solar"))
    if wind_model is not None:
        renewable = renewable + WindTraceGenerator(wind_model).generate(
            slots, make_rng(root, "wind"))
    price_rt, price_lt = NyisoLikePriceGenerator(price_model).generate(
        slots, make_rng(root, "prices"))

    traces = TraceSet(
        demand_ds=demand_ds,
        demand_dt=demand_dt,
        renewable=renewable,
        price_rt=price_rt,
        price_lt_hourly=price_lt,
        meta={"seed": seed, "source": "make_paper_traces"},
    )
    if clip_peaks and system.p_grid > 0:
        traces = clip_demand_peaks(traces, system.p_grid)
    return traces
