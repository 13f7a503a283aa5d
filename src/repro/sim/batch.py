"""The batch-controller protocol and its per-slot records.

The batch engine (:class:`~repro.fleet.engine.StreamingBatchSimulator`)
advances ``B`` scenarios per slot in ``(B,)`` array form and talks to
its controllers through the :class:`BatchController` protocol, with
array-form twins of the scalar per-slot records
(:class:`BatchFineObservation`, :class:`BatchSlotFeedback`; the
coarse-boundary twin is
:class:`~repro.core.interfaces.BatchCoarseObservation`).  Two
implementations plug in:

* :class:`~repro.core.smartdpss_vec.VecSmartDPSS` — SmartDPSS with the
  P5 hot path fully vectorized;
* :class:`ScalarControllerBatch` — adapter running any scalar
  :class:`~repro.core.interfaces.Controller` per scenario while the
  physics stays vectorized.

A user's own :class:`~repro.core.interfaces.Controller` batches through
the adapter: pass it in a
:class:`~repro.fleet.engine.StreamRunSpec` to
``StreamingBatchSimulator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.config.system import SystemConfig
from repro.core.interfaces import (
    BatchCoarseObservation,
    Controller,
    FineObservation,
    SlotFeedback,
)
from repro.exceptions import ConfigurationError


@dataclass
class BatchFineObservation:
    """Array form of :class:`~repro.core.interfaces.FineObservation`.

    ``cycle_budget_left`` uses ``+inf`` for "unconstrained" (the scalar
    protocol's ``None``); the scalar-facing adapter converts back.
    """

    fine_slot: int
    coarse_index: int
    price_rt: np.ndarray
    demand_ds: np.ndarray
    demand_dt: np.ndarray
    renewable: np.ndarray
    battery_level: np.ndarray
    backlog: np.ndarray
    long_term_rate: np.ndarray
    grid_headroom: np.ndarray
    supply_headroom: np.ndarray
    cycle_budget_left: np.ndarray


@dataclass
class BatchSlotFeedback:
    """Array form of :class:`~repro.core.interfaces.SlotFeedback`."""

    fine_slot: int
    served_dt: np.ndarray
    served_ds: np.ndarray
    unserved_ds: np.ndarray
    charge: np.ndarray
    discharge: np.ndarray
    waste: np.ndarray
    battery_level: np.ndarray
    backlog: np.ndarray
    had_backlog: np.ndarray


@runtime_checkable
class BatchController(Protocol):
    """What the batch engine needs from a controller bundle."""

    @property
    def names(self) -> list[str]: ...

    def begin_horizon(self, systems: Sequence[SystemConfig]) -> None: ...

    def plan_long_term(self, obs: BatchCoarseObservation
                       ) -> np.ndarray: ...

    def real_time(self, obs: BatchFineObservation
                  ) -> tuple[np.ndarray, np.ndarray]: ...

    def end_slot(self, feedback: BatchSlotFeedback) -> None: ...


class ScalarControllerBatch:
    """Drives ``B`` scalar controllers inside the batch engine.

    The physics stays vectorized; only the policy calls loop, each one
    receiving the exact scalar observation records it would get from
    :class:`~repro.sim.engine.Simulator`.  This is the universal
    fallback that lets the batch engine run *any* mix of policies
    (baselines, user controllers) without a vectorized port.
    """

    def __init__(self, controllers: Sequence[Controller]):
        if not controllers:
            raise ConfigurationError("need at least one controller")
        self.controllers = list(controllers)

    @property
    def names(self) -> list[str]:
        return [controller.name for controller in self.controllers]

    def begin_horizon(self, systems: Sequence[SystemConfig]) -> None:
        for controller, system in zip(self.controllers, systems):
            controller.begin_horizon(system)

    def plan_long_term(self, obs: BatchCoarseObservation) -> np.ndarray:
        return np.array([
            float(controller.plan_long_term(obs.scalar(index)))
            for index, controller in enumerate(self.controllers)])

    @staticmethod
    def _budget_left(value: float) -> int | None:
        return None if np.isinf(value) else int(value)

    def real_time(self, obs: BatchFineObservation
                  ) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.controllers)
        grt = np.zeros(n)
        gamma = np.zeros(n)
        for index, controller in enumerate(self.controllers):
            decision = controller.real_time(FineObservation(
                fine_slot=obs.fine_slot,
                coarse_index=obs.coarse_index,
                price_rt=float(obs.price_rt[index]),
                demand_ds=float(obs.demand_ds[index]),
                demand_dt=float(obs.demand_dt[index]),
                renewable=float(obs.renewable[index]),
                battery_level=float(obs.battery_level[index]),
                backlog=float(obs.backlog[index]),
                long_term_rate=float(obs.long_term_rate[index]),
                grid_headroom=float(obs.grid_headroom[index]),
                supply_headroom=float(obs.supply_headroom[index]),
                cycle_budget_left=self._budget_left(
                    obs.cycle_budget_left[index]),
            ))
            grt[index] = decision.grt
            gamma[index] = decision.gamma
        return grt, gamma

    def end_slot(self, feedback: BatchSlotFeedback) -> None:
        for index, controller in enumerate(self.controllers):
            controller.end_slot(SlotFeedback(
                fine_slot=feedback.fine_slot,
                served_dt=float(feedback.served_dt[index]),
                served_ds=float(feedback.served_ds[index]),
                unserved_ds=float(feedback.unserved_ds[index]),
                charge=float(feedback.charge[index]),
                discharge=float(feedback.discharge[index]),
                waste=float(feedback.waste[index]),
                battery_level=float(feedback.battery_level[index]),
                backlog=float(feedback.backlog[index]),
                had_backlog=bool(feedback.had_backlog[index]),
            ))
