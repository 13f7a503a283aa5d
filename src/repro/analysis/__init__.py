"""Analysis utilities: bound verification, comparisons, reporting.

* :mod:`repro.analysis.theory` — checks Theorem 2's guarantees against
  a finished simulation (battery range, queue bounds, worst-case delay,
  cost gap);
* :mod:`repro.analysis.comparison` — cost-reduction and gap metrics
  between policies;
* :mod:`repro.analysis.tables` — plain-text table/series rendering used
  by the experiments CLI (the repo's stand-in for the paper's
  figures).
"""

from repro.analysis.comparison import cost_reduction, optimality_gap
from repro.analysis.decomposition import (
    SavingsDecomposition,
    decompose_savings,
)
from repro.analysis.drift import DriftRecorder, verify_drift_inequality
from repro.analysis.peaks import demand_charge, peak_report
from repro.analysis.tables import format_series, format_table
from repro.analysis.theory import BoundCheck, verify_theorem2
from repro.analysis.timeseries import (
    battery_cycle_profile,
    by_day,
    by_hour,
    purchase_profile,
)

__all__ = [
    "verify_theorem2",
    "BoundCheck",
    "verify_drift_inequality",
    "DriftRecorder",
    "cost_reduction",
    "optimality_gap",
    "decompose_savings",
    "SavingsDecomposition",
    "peak_report",
    "demand_charge",
    "format_table",
    "format_series",
    "by_hour",
    "by_day",
    "purchase_profile",
    "battery_cycle_profile",
]
