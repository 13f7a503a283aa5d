"""The paper's contribution: the SmartDPSS online control algorithm.

Layout:

* :mod:`repro.core.interfaces` — the controller protocol every policy
  (SmartDPSS and all baselines) implements, plus the observation and
  decision records exchanged with the simulation engine;
* :mod:`repro.core.virtual_queues` — the delay-aware queue ``Y``
  (eq. 12) and the shifted battery queue ``X`` (eqs. 14-15);
* :mod:`repro.core.bounds` — every constant of Theorems 1-3 and
  Corollary 1 (``H1, H2, H3, Vmax, Qmax, Ymax, Umax, λmax``), in
  both the paper-literal and implementation-consistent variants;
* :mod:`repro.core.p4` / :mod:`repro.core.p5` — the two-timescale
  subproblem solvers (long-term-ahead planning and real-time
  balancing);
* :mod:`repro.core.smartdpss` — Algorithm 1 tying it all together.
"""

from repro.core.bounds import BoundVariant, TheoreticalBounds
from repro.core.interfaces import (
    Controller,
    CoarseObservation,
    FineObservation,
    RealTimeDecision,
    SlotFeedback,
)
from repro.core.p4 import solve_p4
from repro.core.p5 import solve_p5
from repro.core.p5_vec import solve_p5_batch
from repro.core.smartdpss import SmartDPSS
from repro.core.smartdpss_vec import VecSmartDPSS
from repro.core.virtual_queues import BatteryVirtualQueue, DelayAwareQueue

__all__ = [
    "Controller",
    "CoarseObservation",
    "FineObservation",
    "RealTimeDecision",
    "SlotFeedback",
    "DelayAwareQueue",
    "BatteryVirtualQueue",
    "TheoreticalBounds",
    "BoundVariant",
    "solve_p4",
    "solve_p5",
    "solve_p5_batch",
    "SmartDPSS",
    "VecSmartDPSS",
]
