"""UPS battery substrate (paper Section II, eqs. 3 and 7-9).

:mod:`repro.battery.model` implements the battery-level process — SoC
integration with charge/discharge efficiencies, per-slot rate caps and
hard ``[Bmin, Bmax]`` projection.  :mod:`repro.battery.lifetime` tracks
charge/discharge cycles against the ``Nmax`` budget and charges each
active slot the per-operation cost ``Cb = Cbuy / Ccycle``.
"""

from repro.battery.lifetime import CycleLedger
from repro.battery.model import BatteryAction, UpsBattery

__all__ = ["UpsBattery", "BatteryAction", "CycleLedger"]
