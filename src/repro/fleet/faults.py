"""Deterministic fault injection for the fleet pipeline.

The fault-tolerance layer in :mod:`repro.fleet.runner` (retry,
bisection, quarantine, pool respawn) is only trustworthy if every
recovery path is exercised on purpose.  This module supplies the
chaos harness: a :class:`FaultPlan` is a declarative, serializable
list of :class:`Fault` entries that fire at **named sites** along the
pipeline —

======================  ================================================
site                    where it fires
======================  ================================================
``traces``              every chunk the engine loads, before its
                        finiteness scan (``nan`` poisons the true
                        view, on generated and materialized traces
                        alike)
``observe``             the observation layer deriving what controllers
                        see from each loaded chunk (``nan`` poisons the
                        *observed* view only, so the engine's scan must
                        raise the typed observation error while physics
                        stays on clean truth)
``plan``                every coarse-boundary planning step of the
                        engine's slot loop
``slot_loop``           every fine slot of the slot loop that is not a
                        planning boundary
``lp_solve``            the offline-gap LP solve for a shard
``store_append``        parent-side, before each attempt to append a
                        finished shard's lines to the
                        :class:`ResultStore` (a failure retries the
                        append, never the shard)
======================  ================================================

and whose ``action`` decides what happens:

``raise``
    Raise a typed error (:class:`~repro.exceptions.FaultInjectionError`
    by default; ``error="solver"`` raises
    :class:`~repro.exceptions.IterationLimitError` to exercise the
    offline-gap degradation path).
``kill``
    Terminate the worker process with ``os._exit`` — the parent sees
    a ``BrokenProcessPool`` exactly as it would for an OOM-killed
    worker.  In-process (serial) execution raises instead of killing
    the only process.
``hang``
    Sleep ``seconds`` (then continue) — drives the per-shard timeout
    path.
``nan``
    Corrupt one trace value (write NaN into ``series`` at ``slot``)
    so the engine's chunk-boundary finiteness scan must catch it and
    raise :class:`~repro.exceptions.TraceCorruptionError`.
``torn``
    (``store_append`` only, parent-side) truncate the store's final
    record line mid-write after the append — simulating a writer
    killed mid-line, which readers and resume must tolerate.

Determinism
-----------
Faults are matched per *scenario attempt*: the runner counts, parent
side, how many times each scenario has been attempted and stamps the
counts into every shard payload.  A fault with ``times=N`` fires on
attempts ``0..N-1`` and then stays quiet — so retried shards recover
deterministically — while ``times=None`` is a permanently poisoned
scenario that the runner must bisect down to and quarantine.
``rate < 1`` makes firing probabilistic but still reproducible: the
decision is a pure hash of ``(plan seed, site, scenario, attempt)``,
identical in every process.

Injection
---------
Pass a plan to :class:`~repro.fleet.runner.FleetRunner`
(``fault_plan=...``) or set the ``REPRO_FAULT_PLAN`` environment
variable to a JSON plan (or a path to one).  Plans travel to workers
inside shard payloads as plain dicts, so no global state is involved.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.exceptions import (
    ConfigurationError,
    FaultInjectionError,
    IterationLimitError,
)

__all__ = [
    "FAULT_ACTIONS",
    "FAULT_ENV_VAR",
    "FAULT_SITES",
    "Fault",
    "FaultPlan",
    "ShardFaults",
]

#: Named sites a fault may target.
FAULT_SITES = ("traces", "observe", "plan", "slot_loop", "lp_solve",
               "store_append")

#: What a firing fault does.
FAULT_ACTIONS = ("raise", "kill", "hang", "nan", "torn")

#: Environment variable holding a JSON plan (or a path to one).
FAULT_ENV_VAR = "REPRO_FAULT_PLAN"

#: Exit status used by the ``kill`` action (recognizable in worker
#: post-mortems; the parent only ever sees ``BrokenProcessPool``).
KILL_EXIT_CODE = 87

#: Trace series the ``nan`` action may corrupt.
_NAN_SERIES = ("demand_ds", "demand_dt", "renewable", "price_rt")


@dataclass(frozen=True)
class Fault:
    """One injectable fault (see module docstring for semantics)."""

    site: str
    action: str = "raise"
    #: ``None`` matches every scenario; a string matches the spec
    #: ``name``; an integer matches the spec ``seed``.
    scenario: object = None
    #: Fire while the scenario's attempt count is below this; ``None``
    #: fires forever (a poisoned scenario).
    times: int | None = 1
    #: Firing probability per (scenario, attempt) — deterministic in
    #: the plan seed.
    rate: float = 1.0
    #: For slot-gated sites: fire only at this absolute fine slot
    #: (``None`` = the first opportunity).
    slot: int | None = None
    #: Series the ``nan`` action corrupts.
    series: str = "demand_ds"
    #: Sleep duration of the ``hang`` action.
    seconds: float = 0.0
    #: Error family for ``raise``: ``"fault"`` →
    #: :class:`FaultInjectionError`, ``"solver"`` →
    #: :class:`IterationLimitError`.
    error: str = "fault"
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{FAULT_SITES}")
        if self.action not in FAULT_ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; expected one "
                f"of {FAULT_ACTIONS}")
        if self.action == "torn" and self.site != "store_append":
            raise ConfigurationError(
                "the 'torn' action only applies to the 'store_append' "
                "site")
        if self.action == "nan" and self.series not in _NAN_SERIES:
            raise ConfigurationError(
                f"unknown trace series {self.series!r}; expected one "
                f"of {_NAN_SERIES}")
        if self.times is not None and self.times < 1:
            raise ConfigurationError(
                f"times must be >= 1 or None, got {self.times}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(
                f"rate must be in [0, 1], got {self.rate}")

    def matches_scenario(self, name: str, seed: int) -> bool:
        if self.scenario is None:
            return True
        if isinstance(self.scenario, str):
            return self.scenario == name
        return int(self.scenario) == int(seed)

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "action": self.action,
            "scenario": self.scenario,
            "times": self.times,
            "rate": self.rate,
            "slot": self.slot,
            "series": self.series,
            "seconds": self.seconds,
            "error": self.error,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Fault":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown Fault fields {sorted(unknown)}")
        return cls(**{key: data[key] for key in data})


@dataclass(frozen=True)
class FaultPlan:
    """A seedable set of faults, serializable end to end.

    ``seed`` only matters for faults with ``rate < 1``: it keys the
    deterministic per-(scenario, attempt) firing draw, so two runs
    with the same plan inject the same faults at the same places.
    """

    faults: tuple = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(
            fault if isinstance(fault, Fault) else Fault.from_dict(fault)
            for fault in self.faults))

    def __len__(self) -> int:
        return len(self.faults)

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "faults": [fault.to_dict() for fault in self.faults]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        return cls(faults=tuple(data.get("faults", ())),
                   seed=int(data.get("seed", 0)))

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        return cls.from_dict(json.loads(payload))

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None
                 ) -> "FaultPlan | None":
        """The plan named by ``REPRO_FAULT_PLAN``, or ``None``.

        The variable holds either inline JSON (starts with ``{``) or a
        path to a JSON file.
        """
        value = (environ if environ is not None
                 else os.environ).get(FAULT_ENV_VAR, "").strip()
        if not value:
            return None
        if value.startswith("{"):
            return cls.from_json(value)
        with open(value, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def bind(self, keys: Sequence[tuple[str, int]],
             attempts: Sequence[int] | None = None,
             in_worker: bool = False) -> "ShardFaults":
        """A per-shard view over ``keys`` = ``[(name, seed), ...]``."""
        return ShardFaults(self, keys, attempts, in_worker=in_worker)


def _draw(seed: int, site: str, name: str, scenario_seed: int,
          attempt: int) -> float:
    """Deterministic uniform in [0, 1) for a rate-gated fault."""
    token = f"{seed}|{site}|{name}|{scenario_seed}|{attempt}"
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


class ShardFaults:
    """A :class:`FaultPlan` bound to one shard's scenarios.

    Built by the worker (or the serial runner) from the payload's
    plan, scenario keys and parent-side attempt counts.  Scenario
    matching and times/rate gating depend only on bind-time state
    (keys and attempt counts are fixed for the shard's lifetime), so
    they are resolved **once** here into per-site target lists — a
    plan whose faults are pinned to scenarios outside this shard then
    costs nothing per slot (``active`` reports the site quiet and the
    engine skips its per-slot ``fire`` calls entirely).
    """

    def __init__(self, plan: FaultPlan,
                 keys: Sequence[tuple[str, int]],
                 attempts: Sequence[int] | None = None,
                 in_worker: bool = False):
        self.plan = plan
        self.keys = [(str(name), int(seed)) for name, seed in keys]
        self.attempts = list(attempts) if attempts is not None \
            else [0] * len(self.keys)
        if len(self.attempts) != len(self.keys):
            raise ConfigurationError(
                f"{len(self.attempts)} attempt counts for "
                f"{len(self.keys)} scenarios")
        self.in_worker = in_worker
        self._by_site: dict[str, list[tuple[Fault, list[int]]]] = {}
        for fault in plan.faults:
            targets = [index for index in range(len(self.keys))
                       if fault.matches_scenario(*self.keys[index])
                       and self._gate(fault, index)]
            if targets:
                self._by_site.setdefault(fault.site, []).append(
                    (fault, targets))

    def active(self, site: str) -> bool:
        """Whether any fault will fire at ``site`` for this shard."""
        return site in self._by_site

    def _gate(self, fault: Fault, index: int) -> bool:
        """times/rate gating for scenario ``index`` at its current
        attempt count."""
        attempt = self.attempts[index]
        if fault.times is not None and attempt >= fault.times:
            return False
        if fault.rate >= 1.0:
            return True
        name, seed = self.keys[index]
        return _draw(self.plan.seed, fault.site, name, seed,
                     attempt) < fault.rate

    def _matches(self, fault: Fault, site: str,
                 subset: Iterable[int] | None) -> Iterable[int]:
        subset = None if subset is None else set(subset)
        for candidate, targets in self._by_site.get(site, ()):
            if candidate != fault:
                continue
            for index in targets:
                if subset is None or index in subset:
                    yield index

    def fire(self, site: str, slot: int | None = None,
             subset: Iterable[int] | None = None) -> None:
        """Fire matching raise/kill/hang faults at ``site``.

        ``slot`` gates slot-specific faults (a fault with ``slot=None``
        fires at the first opportunity); ``subset`` restricts matching
        to those scenario positions (the offline-gap path checks one
        system group at a time).
        """
        entries = self._by_site.get(site)
        if not entries:
            return
        subset = None if subset is None else set(subset)
        for fault, targets in entries:
            if fault.action not in ("raise", "kill", "hang"):
                continue
            if fault.slot is not None and slot is not None \
                    and fault.slot != slot:
                continue
            for index in targets:
                if subset is not None and index not in subset:
                    continue
                name, seed = self.keys[index]
                if fault.action == "hang":
                    time.sleep(fault.seconds)
                    continue
                if fault.action == "kill":
                    if self.in_worker:
                        os._exit(KILL_EXIT_CODE)
                    raise FaultInjectionError(
                        f"worker_kill fault at site {site!r} for "
                        f"scenario {name!r} (in-process run: raising "
                        f"instead of killing)", site=site, scenario=name)
                if fault.error == "solver":
                    raise IterationLimitError(
                        f"{fault.message} (injected at site {site!r} "
                        f"for scenario {name!r})", status="injected")
                raise FaultInjectionError(
                    f"{fault.message} (site {site!r}, scenario "
                    f"{name!r}, seed {seed}, attempt "
                    f"{self.attempts[index]})", site=site, scenario=name)

    def nan_targets(self, start: int, stop: int, site: str = "traces"
                    ) -> list[tuple[int, str, int]]:
        """Corruption targets for the chunk ``[start, stop)``.

        Returns ``(scenario position, series, absolute slot)`` triples
        for every matching ``nan`` fault at ``site`` (``traces``
        poisons the true view, ``observe`` the observed view) whose
        slot lands in the chunk (``slot=None`` → the chunk's first
        slot when the chunk is the horizon's first).
        """
        targets = []
        for fault in self.plan.faults:
            if fault.action != "nan" or fault.site != site:
                continue
            slot = fault.slot if fault.slot is not None else 0
            if not start <= slot < stop:
                continue
            for index in self._matches(fault, site, None):
                targets.append((index, fault.series, slot))
        return targets

    def torn_append(self, site: str = "store_append") -> bool:
        """Whether a ``torn`` fault fires for this append (parent
        side; fires once per shard append whose scenarios match, so
        plans should pin ``scenario`` to tear a single line)."""
        for fault in self.plan.faults:
            if fault.action != "torn":
                continue
            for _ in self._matches(fault, site, None):
                return True
        return False
