"""Synthetic trace substrates (paper Section VI-A).

The paper drives its evaluation from three external, non-redistributable
data sources: NREL MIDC solar meteorology, NYISO electricity prices and a
Google-cluster power demand trace.  This subpackage synthesizes
statistically matched, fully seeded equivalents — the controller reacts
only to the statistical features they share (diurnal cycles, solar
intermittency, two-timescale price structure), not to the particular
recorded days — and provides the scaling transformations the paper's
experiments apply to them (renewable penetration, demand variance
shaping, system expansion ``β``, peak clipping at ``Pgrid``).
"""

from repro.traces.base import Trace, TraceBlock, TraceSet
from repro.traces.demand import (
    DemandModel,
    DemandTraceKernel,
    GoogleClusterDemandGenerator,
)
from repro.traces.library import make_paper_traces
from repro.traces.prices import (
    NyisoLikePriceGenerator,
    PriceModel,
    PriceTraceKernel,
)
from repro.traces.scaling import (
    clip_demand_peaks,
    expand_system,
    rescale_renewable_penetration,
    reshape_demand_variation,
)
from repro.traces.solar import (
    MidcLikeSolarGenerator,
    SolarModel,
    SolarTraceKernel,
)
from repro.traces.wind import WindModel, WindTraceGenerator

__all__ = [
    "Trace",
    "TraceBlock",
    "TraceSet",
    "DemandTraceKernel",
    "SolarTraceKernel",
    "PriceTraceKernel",
    "SolarModel",
    "MidcLikeSolarGenerator",
    "WindModel",
    "WindTraceGenerator",
    "PriceModel",
    "NyisoLikePriceGenerator",
    "DemandModel",
    "GoogleClusterDemandGenerator",
    "make_paper_traces",
    "rescale_renewable_penetration",
    "reshape_demand_variation",
    "expand_system",
    "clip_demand_peaks",
]
