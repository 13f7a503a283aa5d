"""SmartDPSS reproduction — cost-minimizing multi-source datacenter power.

A full reimplementation of *"SmartDPSS: Cost-Minimizing Multi-source
Power Supply for Datacenters with Arbitrary Demand"* (Deng, Liu, Jin,
Wu — ICDCS 2013): the two-timescale Lyapunov online controller, every
substrate it runs on (synthetic trace generators, UPS battery, grid
markets, backlog queue, LP solvers, simulation engine), the paper's
baselines, and an experiments CLI (``python -m repro.experiments``)
regenerating every evaluation figure.

Quickstart::

    from repro import (SmartDPSS, Simulator, make_paper_traces,
                       paper_controller_config, paper_system_config)

    system = paper_system_config()
    traces = make_paper_traces(system, seed=7)
    controller = SmartDPSS(paper_controller_config(v=1.0))
    result = Simulator(system, controller, traces).run()
    print(result.time_average_cost, result.average_delay_hours())
"""

import logging as _logging

# Library hygiene: repro.* modules log under this hierarchy but never
# configure handlers — silence "No handlers could be found" for
# embedders; the CLIs install their own stderr handler per invocation.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro.caches import clear_caches
from repro.baselines import (
    ImpatientController,
    MyopicPriceThreshold,
    OfflineOptimal,
    solve_offline_plan,
)
from repro.config import (
    ObjectiveMode,
    SmartDPSSConfig,
    SystemConfig,
    paper_controller_config,
    paper_system_config,
)
from repro.core import (
    BoundVariant,
    Controller,
    SmartDPSS,
    TheoreticalBounds,
)
from repro.core.bounds import compute_bounds
from repro.sim import SimulationResult, Simulator
from repro.traces import (
    TraceSet,
    expand_system,
    make_paper_traces,
    rescale_renewable_penetration,
    reshape_demand_variation,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # Process hygiene
    "clear_caches",
    # Configuration
    "SystemConfig",
    "SmartDPSSConfig",
    "ObjectiveMode",
    "paper_system_config",
    "paper_controller_config",
    # Controllers
    "Controller",
    "SmartDPSS",
    "ImpatientController",
    "OfflineOptimal",
    "MyopicPriceThreshold",
    "solve_offline_plan",
    # Theory
    "TheoreticalBounds",
    "BoundVariant",
    "compute_bounds",
    # Simulation
    "Simulator",
    "SimulationResult",
    # Traces
    "TraceSet",
    "make_paper_traces",
    "rescale_renewable_penetration",
    "reshape_demand_variation",
    "expand_system",
]
