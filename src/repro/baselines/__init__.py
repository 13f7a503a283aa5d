"""Comparison policies (paper Section VI-A "Compared Algorithms").

* :class:`~repro.baselines.impatient.ImpatientController` — the paper's
  online baseline: "always schedules workloads immediately regardless
  of the changes of electricity prices and renewable production";
* :class:`~repro.baselines.offline.OfflineOptimal` — the clairvoyant
  benchmark ``φopt``: a full-horizon linear program with complete
  knowledge of demand, renewables and prices (strictly stronger than
  the paper's per-coarse-slot P2 construction, because it also
  co-optimizes the battery across coarse slots);
* :class:`~repro.baselines.myopic.MyopicPriceThreshold` — an extra
  single-timescale heuristic (serve when the price is below a running
  quantile) used in ablation benchmarks.
"""

from repro.baselines.impatient import ImpatientController
from repro.baselines.lookahead import LookaheadController, PaperP2Offline
from repro.baselines.myopic import MyopicPriceThreshold
from repro.baselines.offline import OfflineOptimal, OfflinePlan, solve_offline_plan

__all__ = [
    "ImpatientController",
    "OfflineOptimal",
    "OfflinePlan",
    "solve_offline_plan",
    "MyopicPriceThreshold",
    "LookaheadController",
    "PaperP2Offline",
]
