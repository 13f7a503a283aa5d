"""Analysis utilities: savings decomposition, diurnal binning, reporting.

* :mod:`repro.analysis.decomposition` — counterfactual decomposition
  of SmartDPSS's saving into deferral and storage contributions;
* :mod:`repro.analysis.timeseries` — hour-of-day binning of per-slot
  series;
* :mod:`repro.analysis.tables` — plain-text table/series rendering used
  by the experiments CLI (the repo's stand-in for the paper's
  figures).
"""

from repro.analysis.decomposition import (
    SavingsDecomposition,
    decompose_savings,
)
from repro.analysis.tables import format_series, format_table
from repro.analysis.timeseries import (
    battery_cycle_profile,
    by_hour,
    purchase_profile,
)

__all__ = [
    "decompose_savings",
    "SavingsDecomposition",
    "format_table",
    "format_series",
    "by_hour",
    "purchase_profile",
    "battery_cycle_profile",
]
