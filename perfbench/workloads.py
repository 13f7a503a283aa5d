"""The benchmark's workloads: fleets generated from a seed.

Every workload is the fleet CLI's v-sweep demo family (20 ``V``
values on a geometric grid x seed replicas, paper system, T = 6) run
through the public :class:`~repro.fleet.FleetRunner` API.  The
benchmark owns the workload seed: it derives the replica seeds from
it, and the program only ever sees the resulting ``ScenarioSpec``
list.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.fleet import ScenarioSpec, grid_specs  # noqa: E402

#: The workload seed whose record digests are pinned in digests.json.
DEFAULT_SEED = 0

#: The v-sweep demo's 20 Lyapunov ``V`` values.
V_VALUES = tuple(round(float(v), 4) for v in np.geomspace(0.05, 5.0, num=20))

#: Coarse slot length T in hours.
T_SLOTS = 6


@dataclass(frozen=True)
class Workload:
    """One fleet shape plus the runner settings it is measured with.

    Why each workload exists is recorded in ``BENCHMARK.json``.
    """

    name: str
    days: int
    #: Seed replicas per ``V`` value in a measured fleet (and in the
    #: tiny self-test fleet).
    replicas: int
    tiny_replicas: int
    workers: int
    offline_gap: bool = False
    robustness: float | None = None

    def runner_kwargs(self) -> dict:
        """``FleetRunner`` keyword arguments (defaults for the rest)."""
        return {"max_workers": self.workers if self.workers > 1 else None,
                "offline_gap": self.offline_gap,
                "robustness": self.robustness}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-1d",
        days=1, replicas=200, tiny_replicas=2, workers=2),
    Workload(
        name="gap-robust-1d",
        days=1, replicas=12, tiny_replicas=2, workers=1,
        offline_gap=True, robustness=0.2),
)}


def replica_seeds(seed: int, count: int) -> list[int]:
    """``count`` trace seeds derived from the workload seed."""
    return [int(s) for s in
            np.random.SeedSequence(seed).generate_state(count)]


def build_specs(workload: Workload, seed: int,
                tiny: bool = False) -> list[ScenarioSpec]:
    """The workload's fleet for one workload seed, in spec order."""
    template = ScenarioSpec(
        system={"preset": "paper", "days": workload.days,
                "fine_slots_per_coarse": T_SLOTS},
        controller={"kind": "smartdpss"},
        trace={"kind": "stream"},
    )
    replicas = workload.tiny_replicas if tiny else workload.replicas
    return grid_specs(template, "controller.v", V_VALUES,
                      seeds=replica_seeds(seed, replicas))
